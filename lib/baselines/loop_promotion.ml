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

   The transformation machinery is shared with {!Rp_core.Promote} (web
   promotion with profit forced and parent-interval dummies disabled);
   what differs is the driver: only real loops are processed (no root
   pseudo-interval), and any aliased reference disqualifies the whole
   variable in that loop. *)

open Rp_ir
open Rp_analysis

(* the only baseline-specific policy: promote whenever legal *)
let baseline_config : Rp_core.Promote.config =
  {
    Rp_core.Promote.engine = Rp_ssa.Incremental.Cytron;
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
    (tree : Intervals.tree) : Rp_core.Promote.stats =
  let stats = Rp_core.Promote.empty_stats () in
  List.iter
    (fun (iv : Intervals.t) ->
      if not iv.Intervals.is_root then begin
        let dom = Dom.compute f in
        let ambiguous = aliased_vars f iv.Intervals.blocks in
        let webs = Rp_ssa.Webs.in_blocks tab f iv.Intervals.blocks in
        List.iter
          (fun web ->
            let base =
              match web with
              | r :: _ -> r.Resource.base
              | [] -> -1
            in
            if base >= 0 && not (Ids.IntSet.mem base ambiguous) then
              Rp_core.Promote.promote_in_web baseline_config f dom iv stats
                (Resource.ResSet.of_list web))
          webs
      end)
    tree.Intervals.all;
  stats

let promote_prog (prog : Func.prog) (trees : (string * Intervals.tree) list)
    : Rp_core.Promote.stats =
  let total = Rp_core.Promote.empty_stats () in
  List.iter
    (fun (f : Func.t) ->
      match List.assoc_opt f.Func.fname trees with
      | Some tree ->
          let s = promote_function f prog.Func.vartab tree in
          total.Rp_core.Promote.loads_replaced <-
            total.Rp_core.Promote.loads_replaced
            + s.Rp_core.Promote.loads_replaced;
          total.Rp_core.Promote.webs_promoted <-
            total.Rp_core.Promote.webs_promoted
            + s.Rp_core.Promote.webs_promoted;
          total.Rp_core.Promote.stores_deleted <-
            total.Rp_core.Promote.stores_deleted
            + s.Rp_core.Promote.stores_deleted
      | None -> ())
    prog.Func.funcs;
  total
