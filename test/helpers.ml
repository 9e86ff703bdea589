(* Shared test utilities. *)

open Rp_ir

(* Build a function whose CFG has the given shape: [edges] over blocks
   0..n-1, block 0 is the entry.  Blocks with two successors branch on
   a dummy parameter register, with one successor they jump, with none
   they return.  Used by the CFG/dominator/interval tests that only
   care about shape. *)
let func_of_edges ~(n : int) (edges : (int * int) list) : Func.t =
  let f = Func.create_func ~name:"g" in
  let cond = Func.fresh_reg ~name:"c" f in
  f.params <- [ cond ];
  let blocks = Array.init n (fun _ -> Func.add_block f) in
  Array.iteri
    (fun i b ->
      let succs = List.filter_map (fun (s, d) -> if s = i then Some d else None) edges in
      match succs with
      | [] -> b.Block.term <- Block.Ret None
      | [ d ] -> b.Block.term <- Block.Jmp blocks.(d).Block.bid
      | [ t; fl ] ->
          b.Block.term <-
            Block.Br
              { cond = Instr.Reg cond; t = blocks.(t).Block.bid; f = blocks.(fl).Block.bid }
      | _ -> invalid_arg "func_of_edges: more than two successors")
    blocks;
  f.entry <- blocks.(0).Block.bid;
  Cfg.recompute_preds f;
  f

(* Compile a MiniC source and run it, returning the interpreter result. *)
let run_source ?(fuel = 10_000_000) (src : string) : Rp_interp.Interp.result =
  let prog = Rp_minic.Lower.compile src in
  Rp_interp.Interp.run ~fuel prog

(* Run the full pipeline on a source.  The optional arguments mirror
   the fields of [Pipeline.options] the suites actually vary. *)
let pipeline ?cfg ?profile (src : string) : Rp_core.Pipeline.report =
  let d = Rp_core.Pipeline.default_options in
  let options =
    {
      d with
      Rp_core.Pipeline.promote = Option.value cfg ~default:d.Rp_core.Pipeline.promote;
      profile = Option.value profile ~default:d.Rp_core.Pipeline.profile;
    }
  in
  Rp_core.Pipeline.run ~options src

(* [options] with a register budget set in the cost model, where
   [--regs] puts it. *)
let with_regs regs (o : Rp_core.Pipeline.options) : Rp_core.Pipeline.options =
  let p = o.Rp_core.Pipeline.promote in
  let cost = { p.Rp_core.Promote.cost with Rp_core.Cost_model.regs } in
  { o with Rp_core.Pipeline.promote = { p with Rp_core.Promote.cost } }

let check_output msg expected (r : Rp_interp.Interp.result) =
  Alcotest.(check (list int)) msg expected r.Rp_interp.Interp.output

(* Assert that promotion preserved behaviour and return the report. *)
let check_pipeline ?cfg ?profile msg src =
  let report = pipeline ?cfg ?profile src in
  Alcotest.(check bool) (msg ^ ": behaviour preserved") true
    report.Rp_core.Pipeline.behaviour_ok;
  report

let dynamic_loads (c : Rp_interp.Interp.counters) = c.Rp_interp.Interp.loads

let dynamic_stores (c : Rp_interp.Interp.counters) = c.Rp_interp.Interp.stores

(* ------------------------------------------------------------------ *)
(* The occurrence index *)

module Occ = Rp_ssa.Occ_index

(* (block, iid) of every instruction the index lists for [v], in order *)
let index_listing idx v =
  let l = ref [] in
  Occ.iter idx v (fun bid (i : Instr.t) ~defs:_ ~uses:_ ->
      l := (bid, i.Instr.iid) :: !l);
  List.rev !l

(* [idx] lists, for every variable, the instructions a fresh build of
   [f] lists, in the same order. *)
let check_index ctx idx (f : Func.t) =
  let fresh = Occ.build f in
  List.iter
    (fun v ->
      let got = index_listing idx v and want = index_listing fresh v in
      if got <> want then
        Alcotest.failf
          "%s: variable %d: the index lists %d instructions, a fresh build %d%s"
          ctx v (List.length got) (List.length want)
          (if List.length got = List.length want then " (order differs)"
           else ""))
    (List.sort_uniq Int.compare (Occ.vars idx @ Occ.vars fresh))

(* The IR of a function as comparable data: versions handed out, id
   counters, and every block's shape and instructions. *)
let ir_of (f : Func.t) =
  ( List.sort compare (Hashtbl.fold (fun v n acc -> (v, n) :: acc) f.Func.mver []),
    (f.Func.next_iid, f.Func.next_reg),
    Vec.fold_left
      (fun acc (b : Block.t) ->
        let instrs s = List.map (fun (i : Instr.t) -> (i.iid, i.op)) (Iseq.to_list s) in
        (b.bid, b.dead, b.preds, b.term, instrs b.phis, instrs b.body) :: acc)
      [] f.Func.blocks )

(* [Incremental.update_for_cloned_resources], run twice: on [f] without
   an index, and on a clone of [f] with a supplied index that was built
   before the cloned definitions were in place and told about them with
   [Occ_index.note], as promotion does.  Both runs must leave the same
   IR, and the supplied index must still match a fresh build. *)
let update ?engine ?protect (f : Func.t) ~cloned_res =
  let g = Func.clone f in
  (* the cloned definitions of the body, each with the instruction
     before it (None: the block's first) *)
  let is_clone (i : Instr.t) =
    List.exists (fun r -> Resource.ResSet.mem r cloned_res) (Instr.mem_defs i.op)
  in
  let placed =
    Vec.fold_left
      (fun acc (b : Block.t) ->
        let _, acc =
          Iseq.fold_left
            (fun (prev, acc) (i : Instr.t) ->
              (Some i.iid, if is_clone i then (b, prev, i) :: acc else acc))
            (None, acc) b.body
        in
        acc)
      [] g.Func.blocks
    |> List.rev
  in
  List.iter (fun ((b : Block.t), _, (i : Instr.t)) -> Block.remove_instr b ~iid:i.iid) placed;
  let index = Occ.build g in
  List.iter
    (fun ((b : Block.t), prev, (i : Instr.t)) ->
      (match prev with
      | None -> Block.insert_at_start b i
      | Some iid -> Block.insert_after b ~iid i);
      Occ.note index b.bid i)
    placed;
  Rp_ssa.Incremental.update_for_cloned_resources ?engine ?protect ~index g
    ~cloned_res;
  Rp_ssa.Incremental.update_for_cloned_resources ?engine ?protect f ~cloned_res;
  if ir_of f <> ir_of g then
    Alcotest.fail "the updater left different IR with and without an index";
  check_index "index after the update" index g
