(* Loop-based register promotion in the style of Lu and Cooper,
   "Register Promotion in C Programs" (PLDI 1997) — the baseline the
   paper compares against in its related-work discussion.

   Per loop (interval), a scalar variable is promotable iff the loop
   contains no ambiguous reference to it: no call that may touch it, no
   pointer access that may alias it.  Promotable variables get a load
   in the preheader, register accesses inside, and stores at the exits.
   No profile is consulted, and a single cold call in the loop kills
   the promotion of every variable the call may touch — the restriction
   the paper's profile-driven algorithm lifts.

   The baseline is a policy over {!Rp_core.Promote.promote_in_interval},
   not a traversal of its own: one promotion state per function, only the
   real loops (no root pseudo-interval), profit forced, no dummies for
   the parent interval, and an [admit] filter that refuses every web of
   a variable with an aliased reference in the loop. *)

open Rp_ir
open Rp_analysis
module Promote = Rp_core.Promote

(* promote whenever legal *)
let config : Promote.config =
  {
    Promote.engine = Rp_ssa.Incremental.Cytron;
    allow_store_removal = true;
    cost = { Rp_core.Cost_model.min_profit = neg_infinity; regs = None };
    insert_dummies = false;
  }

(* Variables with an aliased reference inside the blocks. *)
let aliased_vars (f : Func.t) (blocks : Ids.IntSet.t) : Ids.IntSet.t =
  let s = ref Ids.IntSet.empty in
  Ids.IntSet.iter
    (fun bid ->
      Block.iter_instrs
        (fun (i : Instr.t) ->
          if Instr.is_aliased_load i.op || Instr.is_aliased_store i.op then begin
            List.iter
              (fun (r : Resource.t) -> s := Ids.IntSet.add r.base !s)
              (Instr.mem_uses i.op);
            List.iter
              (fun (r : Resource.t) -> s := Ids.IntSet.add r.base !s)
              (Instr.mem_defs i.op)
          end)
        (Func.block f bid))
    blocks;
  !s

let promote_function (f : Func.t) (tab : Resource.table)
    (tree : Intervals.tree) : Promote.stats =
  let stats = Promote.empty_stats () in
  let st = Promote.state f tab in
  List.iter
    (fun (iv : Intervals.t) ->
      if not iv.Intervals.is_root then begin
        (* taken before the interval's first web is promoted *)
        let ambiguous = aliased_vars f iv.Intervals.blocks in
        let admit (w : Rp_core.Web_info.t) =
          not (Ids.IntSet.mem w.Rp_core.Web_info.base ambiguous)
        in
        Promote.promote_in_interval ~admit config st stats iv
      end)
    tree.Intervals.all;
  stats

let promote_prog (prog : Func.prog) (trees : (string * Intervals.tree) list)
    : Promote.stats =
  let total = Promote.empty_stats () in
  List.iter
    (fun (f : Func.t) ->
      match List.assoc_opt f.Func.fname trees with
      | Some tree ->
          Promote.accumulate total (promote_function f prog.Func.vartab tree)
      | None -> ())
    prog.Func.funcs;
  total
