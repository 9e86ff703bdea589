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
  let res = RA.Color.color g (RA.Interference.occurring f) in
  Alcotest.(check bool) "coloring proper" true (RA.Color.proper g res);
  (* on SSA the chromatic number equals max live *)
  Alcotest.(check int) "colors = maxlive" (maxlive f) res.RA.Color.colors

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
        let res = RA.Color.color g (RA.Interference.occurring f) in
        let name = label ^ "/" ^ f.Func.fname in
        Alcotest.(check bool) (name ^ ": proper") true (RA.Color.proper g res);
        Alcotest.(check int) (name ^ ": colors") (colors_of f.Func.fname)
          res.RA.Color.colors)
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
  ]
