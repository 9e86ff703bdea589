(* Table 3's color count and Chaitin spill estimates.

   Table 3 of the paper reports, per routine and before/after
   promotion, the number of colors the register interference graph
   needs.  On strict SSA form that graph is chordal and its chromatic
   number is MAXLIVE, the largest number of simultaneously live
   registers (Bouchez, Darte & Rastello); after [Cleanup] no register
   copy is left for copy slack to act on.  So [analyse] reads the
   count from {!Rp_analysis.Pressure}'s liveness walk and builds the
   interference graph only when a spill estimate is asked for.

   [simplify] is Chaitin's iterated simplification; the tests' coloring
   oracle for [analyse] pops its removal order, assigning each node the
   smallest color free among its already-colored neighbours. *)

open Rp_ir

(* Bucketized min-degree simplification with a register budget [k]:
   remove a node of degree < k while one exists; when every remaining
   node has degree >= k, count the busiest one as a spill and remove
   it.  Nodes live in degree-indexed LIFO buckets with lazy deletion —
   a node is re-pushed every time its degree drops, and a popped entry
   counts only when it carries the node's current degree.  Degrees
   only decrease, so the scan pointer moves monotonically except for
   the one-step-back reset on decrement; total work is O(V + E)
   instead of the O(V^2) of rescanning for the minimum.  Returns the
   removal order, last removed first, and the spill count; with
   [k = max_int] nothing spills and the order is pure minimum
   degree. *)
let simplify (g : Interference.t) (nodes : Ids.IntSet.t) ~(k : int) :
    Ids.reg list * int =
  let n = max (Interference.num_nodes g) 1 in
  let remaining = Array.make n false in
  Ids.IntSet.iter (fun r -> remaining.(r) <- true) nodes;
  let degree = Array.make n 0 in
  let nn = Ids.IntSet.cardinal nodes in
  let buckets = Array.make (nn + 1) [] in
  Ids.IntSet.iter
    (fun r ->
      let d = ref 0 in
      Interference.iter_adj g r (fun x -> if remaining.(x) then incr d);
      degree.(r) <- !d;
      buckets.(!d) <- r :: buckets.(!d))
    nodes;
  let stack = ref [] in
  let spills = ref 0 in
  let removed = ref 0 in
  let d = ref 0 in
  let remove r =
    stack := r :: !stack;
    remaining.(r) <- false;
    incr removed;
    Interference.iter_adj g r (fun x ->
        if remaining.(x) then begin
          let dx = degree.(x) - 1 in
          degree.(x) <- dx;
          buckets.(dx) <- x :: buckets.(dx);
          if dx < !d then d := dx
        end)
  in
  while !removed < nn do
    if !d < k then begin
      match buckets.(!d) with
      | [] -> incr d
      | r :: rest ->
          buckets.(!d) <- rest;
          (* a live entry carries the node's current degree; anything
             else is a stale higher-degree copy *)
          if remaining.(r) && degree.(r) = !d then remove r
    end
    else begin
      (* everything left has degree >= k: spill the busiest node,
         scanning from the top with the same lazy-deletion rule *)
      let hi = ref nn in
      let victim = ref (-1) in
      while !victim < 0 do
        match buckets.(!hi) with
        | [] -> decr hi
        | r :: rest ->
            buckets.(!hi) <- rest;
            if remaining.(r) && degree.(r) = !hi then victim := r
      done;
      incr spills;
      remove !victim
    end
  done;
  (!stack, !spills)

type summary = {
  s_colors : int;
  s_maxlive : int;
  s_spills : int option;  (** at the given budget; [None] when unbounded *)
}

(* Chaitin-style spill estimation for a machine with [k] registers:
   the count of nodes [simplify] has to mark approximates how many
   live ranges need memory homes — the cost side of the paper's
   Table 3 pressure observation, made concrete. *)
let count_spills (g : Interference.t) (nodes : Ids.IntSet.t) ~(k : int) : int
    =
  snd (simplify g nodes ~k)

let spills_for_func (f : Func.t) ~k : int =
  let g = Interference.build f in
  count_spills g (Interference.occurring f) ~k

(* The whole Table 3 row for one function: colors = MAXLIVE from one
   liveness walk, and — only when a register budget is given — the
   Chaitin spill estimate at that budget from an interference build. *)
let analyse (f : Func.t) ~(k : int option) : summary =
  let maxlive =
    Rp_analysis.Pressure.maxlive (Rp_analysis.Pressure.compute f)
  in
  {
    s_colors = maxlive;
    s_maxlive = maxlive;
    s_spills = Option.map (fun k -> spills_for_func f ~k) k;
  }
