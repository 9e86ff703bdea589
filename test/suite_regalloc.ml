(* Interference graph and coloring tests — the Table 3 substrate. *)

open Rp_ir
open Rp_analysis
open Rp_ssa
module RA = Rp_regalloc

let prep src =
  let prog = Rp_minic.Lower.compile src in
  List.iter (fun f -> ignore (Intervals.normalise f)) prog.Func.funcs;
  List.iter Construct.run prog.Func.funcs;
  Rp_opt.Cleanup.run_prog prog;
  prog

let main_of prog = Option.get (Func.find_func prog "main")

let maxlive f = Pressure.maxlive (Pressure.compute f)

let test_interference_basic () =
  (* t0 and t1 both live across t2's definition *)
  let f = Func.create_func ~name:"t" in
  let b = Func.add_block f in
  f.Func.entry <- b.Block.bid;
  Block.insert_at_end b (Func.mk_instr f (Instr.Copy { dst = 0; src = Imm 1 }));
  Block.insert_at_end b (Func.mk_instr f (Instr.Copy { dst = 1; src = Imm 2 }));
  Block.insert_at_end b
    (Func.mk_instr f (Instr.Bin { dst = 2; op = Instr.Add; l = Reg 0; r = Reg 1 }));
  Block.insert_at_end b (Func.mk_instr f (Instr.Print { src = Reg 2 }));
  b.Block.term <- Block.Ret None;
  f.Func.next_reg <- 3;
  Cfg.recompute_preds f;
  let g = RA.Interference.build f in
  Alcotest.(check bool) "t0-t1 interfere" true (RA.Interference.interfere g 0 1);
  Alcotest.(check bool) "t0-t2 do not" false (RA.Interference.interfere g 0 2);
  Alcotest.(check int) "max live" 2 (maxlive f)

let test_copy_slack () =
  (* a copy's source and target do not interfere through the copy *)
  let f = Func.create_func ~name:"t" in
  let b = Func.add_block f in
  f.Func.entry <- b.Block.bid;
  Block.insert_at_end b (Func.mk_instr f (Instr.Copy { dst = 0; src = Imm 1 }));
  Block.insert_at_end b (Func.mk_instr f (Instr.Copy { dst = 1; src = Reg 0 }));
  Block.insert_at_end b (Func.mk_instr f (Instr.Print { src = Reg 1 }));
  b.Block.term <- Block.Ret None;
  f.Func.next_reg <- 2;
  Cfg.recompute_preds f;
  let g = RA.Interference.build f in
  Alcotest.(check bool) "copy slack" false (RA.Interference.interfere g 0 1)

let test_coloring_proper_and_tight () =
  let src =
    {|
int main() {
  int a = 1;
  int b = 2;
  int c = 3;
  int d = a + b;
  int e = c + d;
  print(a + b + c + d + e);
  return 0;
}
|}
  in
  let prog = prep src in
  let f = main_of prog in
  let g = RA.Interference.build f in
  let res = Color_oracle.color g (RA.Interference.occurring f) in
  Alcotest.(check bool) "coloring proper" true (Color_oracle.proper g res);
  (* on SSA the chromatic number equals max live *)
  Alcotest.(check int) "colors = maxlive" (maxlive f) res.Color_oracle.colors

(* The oracle for Table 3: [Color.analyse] reports MAXLIVE as the
   color count without building a graph.  On every function of the
   named workloads and the generated family, before promotion and
   after finalisation, coloring the slack-free interference graph must
   give a proper coloring with exactly the reported count. *)
let test_ssa_chordal_on_workloads () =
  let check_prog label (prog : Func.prog) colors_of =
    List.iter
      (fun (f : Func.t) ->
        let g = RA.Interference.build ~copy_slack:false f in
        let res = Color_oracle.color g (RA.Interference.occurring f) in
        let name = label ^ "/" ^ f.Func.fname in
        Alcotest.(check bool) (name ^ ": proper") true
          (Color_oracle.proper g res);
        Alcotest.(check int) (name ^ ": colors") (colors_of f.Func.fname)
          res.Color_oracle.colors)
      prog.Func.funcs
  in
  List.iter
    (fun (w : Rp_workloads.Registry.workload) ->
      let src = w.Rp_workloads.Registry.source in
      let r = Helpers.check_pipeline w.Rp_workloads.Registry.name src in
      let row name =
        List.find
          (fun fp -> fp.Rp_core.Pipeline.fp_name = name)
          r.Rp_core.Pipeline.pressure
      in
      let before, _ = Rp_core.Pipeline.prepare src in
      check_prog (w.Rp_workloads.Registry.name ^ " before") before (fun n ->
          (row n).Rp_core.Pipeline.fp_before.RA.Color.s_colors);
      check_prog (w.Rp_workloads.Registry.name ^ " after")
        r.Rp_core.Pipeline.prog (fun n ->
          (row n).Rp_core.Pipeline.fp_after.RA.Color.s_colors))
    (Rp_workloads.Registry.all
    @ List.map Rp_workloads.Registry.generated [ 60; 120; 240; 480 ])

let test_promotion_increases_pressure () =
  (* Table 3's qualitative claim: promotion increases register
     pressure *)
  let src =
    {|
int x = 0;
int y = 0;
void foo() { x = x + y; }
int main() {
  int i;
  for (i = 0; i < 100; i++) { x++; y = y + 2; }
  for (i = 0; i < 10; i++) { foo(); }
  print(x); print(y);
  return 0;
}
|}
  in
  let prog = prep src in
  let before = maxlive (main_of prog) in
  (* run promotion on the same program *)
  let report = Helpers.check_pipeline "pressure" src in
  let promoted_main =
    Option.get (Func.find_func report.Rp_core.Pipeline.prog "main")
  in
  let after = maxlive promoted_main in
  Alcotest.(check bool)
    (Printf.sprintf "pressure did not drop (before %d after %d)" before after)
    true (after >= before)

let test_spills () =
  (* a 3-clique needs 3 registers: no spills at k=3, one at k=2 *)
  let f = Func.create_func ~name:"t" in
  let b = Func.add_block f in
  f.Func.entry <- b.Block.bid;
  Block.insert_at_end b (Func.mk_instr f (Instr.Copy { dst = 0; src = Imm 1 }));
  Block.insert_at_end b (Func.mk_instr f (Instr.Copy { dst = 1; src = Imm 2 }));
  Block.insert_at_end b (Func.mk_instr f (Instr.Copy { dst = 2; src = Imm 3 }));
  Block.insert_at_end b
    (Func.mk_instr f
       (Instr.Bin { dst = 3; op = Instr.Add; l = Reg 0; r = Reg 1 }));
  Block.insert_at_end b
    (Func.mk_instr f
       (Instr.Bin { dst = 4; op = Instr.Add; l = Reg 3; r = Reg 2 }));
  Block.insert_at_end b (Func.mk_instr f (Instr.Print { src = Reg 4 }));
  b.Block.term <- Block.Ret None;
  f.Func.next_reg <- 5;
  Cfg.recompute_preds f;
  Alcotest.(check int) "no spills with 3 regs" 0
    (RA.Color.spills_for_func f ~k:3);
  Alcotest.(check bool) "spills with 2 regs" true
    (RA.Color.spills_for_func f ~k:2 >= 1);
  Alcotest.(check int) "no spills with plenty" 0
    (RA.Color.spills_for_func f ~k:32)

let test_spills_monotone_in_k () =
  let w = List.hd Rp_workloads.Registry.all in
  let prog = prep w.Rp_workloads.Registry.source in
  List.iter
    (fun f ->
      let s4 = RA.Color.spills_for_func f ~k:4 in
      let s8 = RA.Color.spills_for_func f ~k:8 in
      let s16 = RA.Color.spills_for_func f ~k:16 in
      Alcotest.(check bool)
        (f.Func.fname ^ ": spills decrease with more registers")
        true
        (s4 >= s8 && s8 >= s16))
    prog.Func.funcs

(* ------------------------------------------------------------------ *)
(* The slot oracle.  [Slots.assign] colors the split SSA clone the
   backend compiles without building a graph; the copy-slack
   interference graph of that clone must find no edge between two
   registers of one slot, and the slots used must be exactly MAXLIVE
   of the clone (the discard and scratch slots are [Rcompile]'s, not
   [Slots]'). *)

let split_clone (f : Func.t) =
  let g = Func.clone f in
  Cfg.split_critical_edges g;
  g

let slots_ok (f : Func.t) : (unit, string) result =
  let g = split_clone f in
  let sl = RA.Slots.assign g in
  let slot r =
    if r < Array.length sl.RA.Slots.slot_of then sl.RA.Slots.slot_of.(r) else -1
  in
  let ig = RA.Interference.build g in
  let clash = ref None in
  RA.Interference.occurring g
  |> Ids.IntSet.iter (fun a ->
         if slot a >= 0 then
           RA.Interference.iter_adj ig a (fun b ->
               if slot b = slot a && !clash = None then clash := Some (a, b)));
  match !clash with
  | Some (a, b) ->
      Error
        (Printf.sprintf "%s: r%d and r%d interfere in slot %d" f.Func.fname a
           b (slot a))
  | None ->
      let ml = maxlive g in
      if sl.RA.Slots.nslots <> ml then
        Error
          (Printf.sprintf "%s: %d slots, maxlive %d" f.Func.fname
             sl.RA.Slots.nslots ml)
      else Ok ()

let check_slots label (prog : Func.prog) =
  List.iter
    (fun f ->
      match slots_ok f with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" label e)
    prog.Func.funcs

module P = Rp_core.Pipeline
module W = Rp_workloads.Registry

let oracle_workloads =
  W.all @ [ W.generated 60; W.generated 240 ]

let test_slots_on_workloads () =
  List.iter
    (fun (w : W.workload) ->
      let before, _ = P.prepare w.W.source in
      check_slots (w.W.name ^ " before") before;
      let after, _ = P.optimise w.W.source in
      check_slots (w.W.name ^ " after") after;
      (* the measured profile steers the slot choices through its edge
         frequencies *)
      check_slots (w.W.name ^ " after, measured") (P.run w.W.source).P.prog)
    oracle_workloads;
  List.iter
    (fun name ->
      let w = Option.get (W.find name) in
      let options = { P.default_options with scalrep = true } in
      let after, _ = P.optimise ~options w.W.source in
      check_slots (name ^ " --scalrep") after)
    [ "blur"; "dot"; "lpc" ]

(* The backend's frame: MAXLIVE slots of the split clone, the discard
   slot, and a scratch slot only in a function whose phi moves form a
   cycle over slots — none does in the optimised workloads, with or
   without scalar replacement, so each function's frame is
   MAXLIVE + 1. *)
let test_frame_slots_on_workloads () =
  let check name ?(options = P.default_options) src =
    let prog, _ = P.optimise ~options src in
    let c = Rp_interp.Rcompile.compile prog in
    List.iter
      (fun (f : Func.t) ->
        let rf =
          c.Rp_interp.Rcompile.rfuncs.(Hashtbl.find c.Rp_interp.Rcompile.rfids
                                         f.Func.fname)
        in
        Alcotest.(check int)
          (name ^ "/" ^ f.Func.fname ^ ": frame slots")
          (maxlive (split_clone f) + 1)
          rf.Rp_interp.Rcompile.rnslots)
      prog.Func.funcs
  in
  List.iter
    (fun (w : W.workload) -> check w.W.name w.W.source)
    (W.all @ List.map W.generated [ 60; 120; 240; 480 ]);
  List.iter
    (fun name ->
      check (name ^ " --scalrep")
        ~options:{ P.default_options with scalrep = true }
        (Option.get (W.find name)).W.source)
    [ "blur"; "dot"; "lpc" ]

(* A three-way rotation in a loop: the back edge carries the parallel
   copy (a, b, c) <- (b, c, a), a cycle however the slots fall, so the
   lowering needs its one scratch slot.  All four engines must agree. *)
let rotation_src =
  {|
int main() {
  int a = 1;
  int b = 2;
  int c = 3;
  int t;
  int i = 0;
  while (i < 10) {
    t = a;
    a = b;
    b = c;
    c = t;
    print(a * 100 + b * 10 + c);
    i = i + 1;
  }
  print(a);
  print(b);
  print(c);
  return 0;
}
|}

let test_rotation_cycle () =
  let prog, _ = P.prepare rotation_src in
  check_slots "rotation" prog;
  let c = Rp_interp.Rcompile.compile prog in
  let f = main_of prog in
  let rf = c.Rp_interp.Rcompile.rfuncs.(c.Rp_interp.Rcompile.rmain) in
  Alcotest.(check int) "maxlive + discard + scratch"
    (maxlive (split_clone f) + 2)
    rf.Rp_interp.Rcompile.rnslots;
  let tree = Rp_interp.Interp.run prog in
  List.iter
    (fun (name, fuse) ->
      let r = Rp_interp.Rengine.run (Rp_interp.Rcompile.compile ~fuse prog) in
      Alcotest.(check (list int)) (name ^ " output = tree")
        tree.Rp_interp.Interp.output r.Rp_interp.Interp.output;
      Alcotest.(check bool) (name ^ " behaviour = tree") true
        (Rp_interp.Interp.same_behaviour tree r))
    [ ("reg", false); ("fused", true) ];
  let report interp =
    snd
      (P.run_fresh_json ~label:"rotation" ~deterministic:true
         ~options:{ P.default_options with interp }
         rotation_src)
  in
  let tree = report P.Tree in
  List.iter
    (fun (name, e) ->
      Alcotest.(check string) (name ^ " report = tree") tree (report e))
    [ ("flat", P.Flat); ("reg", P.Reg); ("fused", P.Fused) ]

(* A phi block whose only predecessor also branches elsewhere: the
   move for its phi runs at the end of that predecessor on both paths,
   so the target must keep off the slot of [y], which is dead in the
   phi block but read on the other path.  Hand-built, since no
   frontend program has such a phi. *)
let test_single_pred_phi () =
  let prog = Func.create_prog () in
  let f = Func.create_func ~name:"main" in
  Func.add_func prog f;
  let p = Func.add_block f and b = Func.add_block f and c = Func.add_block f in
  f.Func.entry <- p.Block.bid;
  let reg () = Func.fresh_reg f in
  let x = reg () and y = reg () and cnd = reg () and d = reg () and t = reg () in
  let ins blk op = Block.insert_at_end blk (Func.mk_instr f op) in
  ins p (Instr.Copy { dst = x; src = Imm 5 });
  ins p (Instr.Copy { dst = y; src = Imm 7 });
  ins p (Instr.Copy { dst = cnd; src = Imm 0 });
  p.Block.term <- Block.Br { cond = Reg cnd; t = b.Block.bid; f = c.Block.bid };
  Iseq.push_back b.Block.phis
    (Func.mk_instr f (Instr.Rphi { dst = d; srcs = [ (p.Block.bid, x) ] }));
  ins b (Instr.Bin { dst = t; op = Instr.Add; l = Reg d; r = Reg x });
  ins b (Instr.Print { src = Reg t });
  b.Block.term <- Block.Ret None;
  ins c (Instr.Print { src = Reg y });
  c.Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  let tree = Rp_interp.Interp.run prog in
  List.iter
    (fun fuse ->
      let r = Rp_interp.Rengine.run (Rp_interp.Rcompile.compile ~fuse prog) in
      Alcotest.(check (list int)) "output = tree" tree.Rp_interp.Interp.output
        r.Rp_interp.Interp.output)
    [ false; true ]

let prop_slots_random =
  QCheck.Test.make ~name:"slots: no interfering pair shares one, MAXLIVE used"
    ~count:150 Suite_qcheck.arb_program (fun src ->
      let check (prog : Func.prog) =
        List.for_all
          (fun f ->
            match slots_ok f with
            | Ok () -> true
            | Error e -> QCheck.Test.fail_report e)
          prog.Func.funcs
      in
      check (fst (P.prepare src)) && check (fst (P.optimise src)))

let suite =
  [
    Alcotest.test_case "interference basics" `Quick test_interference_basic;
    Alcotest.test_case "copy slack" `Quick test_copy_slack;
    Alcotest.test_case "coloring proper and tight" `Quick
      test_coloring_proper_and_tight;
    Alcotest.test_case "chordal: colors = maxlive (workloads)" `Slow
      test_ssa_chordal_on_workloads;
    Alcotest.test_case "promotion raises pressure" `Quick
      test_promotion_increases_pressure;
    Alcotest.test_case "spill estimation" `Quick test_spills;
    Alcotest.test_case "spills monotone in k" `Quick test_spills_monotone_in_k;
    Alcotest.test_case "slot oracle (workloads, before/after, scalrep)" `Slow
      test_slots_on_workloads;
    Alcotest.test_case "frame = maxlive + discard (workloads)" `Slow
      test_frame_slots_on_workloads;
    Alcotest.test_case "rotation cycle: scratch slot, engines agree" `Quick
      test_rotation_cycle;
    Alcotest.test_case "phi target keeps off a sibling edge's slots" `Quick
      test_single_pred_phi;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x5eed |])
      prop_slots_random;
  ]
