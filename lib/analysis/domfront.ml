(* Dominance frontiers and iterated dominance frontiers, following
   Cytron et al. [CFR+91] with the standard Cooper–Harvey–Kennedy
   frontier computation.

   The iterated dominance frontier (IDF) is where phi instructions go:
   both during initial SSA construction and in the paper's incremental
   update for cloned definitions (Figure 11, step 1). *)

open Rp_ir

type t = { df : Bitset.t array }

let compute (f : Func.t) (dom : Dom.t) : t =
  let n = Func.num_blocks f in
  let df = Array.init (max n 1) (fun _ -> Bitset.create n) in
  Func.iter_blocks
    (fun b ->
      if Dom.reachable dom b.bid then
        let preds = List.filter (Dom.reachable dom) b.Block.preds in
        (* joins have >= 2 predecessors; the entry is special: even with
           a single (back-edge) predecessor it lies in the frontier of
           everything dominating that predecessor, itself included *)
        if List.length preds >= 2 || (b.bid = f.entry && preds <> []) then
          List.iter
            (fun p ->
              (* walk up from each predecessor to the idom of b,
                 exclusive; when b is the entry (it has no idom — the
                 predecessors are loop back edges) the walk runs to the
                 root inclusive *)
              let stop =
                match Dom.idom dom b.bid with Some i -> i | None -> -1
              in
              let rec walk runner =
                if runner <> stop then begin
                  Bitset.add df.(runner) b.bid;
                  match Dom.idom dom runner with
                  | Some i -> walk i
                  | None -> ()
                end
              in
              walk p)
            preds)
    f;
  { df }

(* Kept with the tree: the Figure-11 updater runs once per promoted
   web on a CFG that promotion does not change, so every batch after
   the first reuses the frontier of the cached tree. *)
type Func.cache_entry += Frontier of t

let cached (f : Func.t) (dom : Dom.t) : t =
  match Dom.derived dom with
  | Some (Frontier df) -> df
  | _ ->
      let df = compute f dom in
      Dom.set_derived dom (Frontier df);
      df

let frontier t b = t.df.(b)

(* Iterated dominance frontier of a set of blocks: the limit of
   DF(S), DF(S ∪ DF(S)), ...  Each block enters the worklist at most
   once, so an array of the block count is a large enough stack; the
   sets and the stack are reused by every query made through one
   [scratch]. *)
type scratch = { result : Bitset.t; enqueued : Bitset.t; stack : int array }

let scratch t =
  let n = Array.length t.df in
  {
    result = Bitset.create n;
    enqueued = Bitset.create n;
    stack = Array.make n 0;
  }

let iterated_in (s : scratch) t (init : Bitset.t) : Bitset.t =
  Bitset.clear s.result;
  Bitset.clear s.enqueued;
  let top = ref 0 in
  let push b =
    if not (Bitset.mem s.enqueued b) then begin
      Bitset.add s.enqueued b;
      s.stack.(!top) <- b;
      incr top
    end
  in
  let reach d =
    if not (Bitset.mem s.result d) then begin
      Bitset.add s.result d;
      push d
    end
  in
  Bitset.iter push init;
  while !top > 0 do
    decr top;
    Bitset.iter reach t.df.(s.stack.(!top))
  done;
  s.result

let iterated t (init : Bitset.t) : Bitset.t = iterated_in (scratch t) t init
