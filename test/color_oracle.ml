(* The coloring oracle for Table 3's count: pop [Color.simplify]'s
   minimum-degree removal order, giving each node the smallest color
   free among its already-colored neighbours (Chaitin with optimistic
   select).  Minimum-degree elimination is not a perfect elimination
   order on every chordal graph, so the count is only an upper bound
   on the chromatic number; on the suites' SSA programs it must equal
   the MAXLIVE [Color.analyse] reports without building a graph. *)

open Rp_ir
module In = Rp_regalloc.Interference

type result = {
  colors : int;  (** number of distinct colors used *)
  assignment : (Ids.reg, int) Hashtbl.t;
}

let color (g : In.t) (nodes : Ids.IntSet.t) : result =
  let stack, _ = Rp_regalloc.Color.simplify g nodes ~k:max_int in
  (* [mark.(c) = r]: color [c] is taken by a neighbour of the node [r]
     being colored *)
  let assignment = Hashtbl.create 64 in
  let color_of = Array.make (max (In.num_nodes g) 1) (-1) in
  let mark = Array.make (Ids.IntSet.cardinal nodes + 1) (-1) in
  let max_color = ref (-1) in
  List.iter
    (fun r ->
      In.iter_adj g r (fun x ->
          let c = color_of.(x) in
          if c >= 0 then mark.(c) <- r);
      let c = ref 0 in
      while mark.(!c) = r do
        incr c
      done;
      color_of.(r) <- !c;
      Hashtbl.replace assignment r !c;
      if !c > !max_color then max_color := !c)
    stack;
  { colors = !max_color + 1; assignment }

(* No interfering pair shares a color. *)
let proper (g : In.t) (r : result) : bool =
  let ok = ref true in
  for a = 0 to In.num_nodes g - 1 do
    match Hashtbl.find_opt r.assignment a with
    | None -> ()
    | Some ca ->
        In.iter_adj g a (fun b ->
            match Hashtbl.find_opt r.assignment b with
            | Some cb -> if a <> b && ca = cb then ok := false
            | None -> ())
  done;
  !ok
