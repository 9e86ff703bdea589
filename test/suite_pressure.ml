(* Pressure-aware promotion: the MAXLIVE analysis, the cost-model
   budget gate and the --regs pipeline option.

   The QCheck properties lean on Bouchez/Darte/Rastello ("On the
   Complexity of Spill Everywhere under SSA Form"): the interference
   graph of a program in strict SSA form is chordal and its chromatic
   number is MAXLIVE, which [Color.analyse] reports as Table 3's color
   count without building the graph.  Coloring the graph itself is the
   oracle: with no register copy left after cleanup, both the
   slack-free and the production build must color in exactly that
   many colors.  The pinned seed tests check the budget's
   user-facing contract: with [--regs k] the predicted spill count
   after promotion never exceeds the unpromoted program's at the same
   [k]. *)

module P = Rp_core.Pipeline
module C = Rp_regalloc.Color
module In = Rp_regalloc.Interference
module Pr = Rp_core.Promote
module R = Rp_workloads.Registry
open Rp_ir

let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* compile to SSA without promoting — the state the pipeline measures
   its "before" pressure on *)
let ssa_prog src =
  let prog = Rp_minic.Lower.compile src in
  List.iter
    (fun f -> ignore (Rp_analysis.Intervals.normalise f))
    prog.Func.funcs;
  List.iter Rp_ssa.Construct.run prog.Func.funcs;
  Rp_opt.Cleanup.run_prog prog;
  prog

(* ------------------------------------------------------------------ *)
(* The analysis itself *)

let all_bids (f : Func.t) : Ids.IntSet.t =
  let s = ref Ids.IntSet.empty in
  Func.iter_blocks (fun b -> s := Ids.IntSet.add b.Block.bid !s) f;
  !s

let prop_pressure_coherent =
  QCheck.Test.make ~name:"maxlive = max over blocks = analyse"
    ~count:100 Suite_qcheck.arb_program (fun src ->
      let prog = ssa_prog src in
      List.for_all
        (fun (f : Func.t) ->
          let p = Rp_analysis.Pressure.compute f in
          Rp_analysis.Pressure.maxlive p
          = Rp_analysis.Pressure.max_over p (all_bids f)
          && Rp_analysis.Pressure.maxlive p = (C.analyse f ~k:None).C.s_maxlive)
        prog.Func.funcs)

(* the colors the coloring oracle needs on a build of [f]'s graph *)
let oracle_colors ?copy_slack (f : Func.t) =
  (Color_oracle.color (In.build ?copy_slack f) (In.occurring f))
    .Color_oracle.colors

let prop_colors_exact =
  QCheck.Test.make ~name:"colors = maxlive (production build)" ~count:100
    Suite_qcheck.arb_program (fun src ->
      let prog = ssa_prog src in
      List.for_all
        (fun (f : Func.t) ->
          let s = C.analyse f ~k:None in
          oracle_colors f = s.C.s_colors
          && s.C.s_colors = s.C.s_maxlive
          && s.C.s_spills = None)
        prog.Func.funcs)

let prop_chordal_exact =
  QCheck.Test.make ~name:"colors = maxlive (slack-free chordal build)"
    ~count:100 Suite_qcheck.arb_program (fun src ->
      let prog = ssa_prog src in
      List.for_all
        (fun (f : Func.t) ->
          oracle_colors ~copy_slack:false f = (C.analyse f ~k:None).C.s_colors)
        prog.Func.funcs)

(* analyse reads colors and MAXLIVE from one liveness walk and builds
   the graph only for the spill estimate — each number must agree with
   the graph-based computation it replaces *)
let test_analyse_coherent () =
  let w = Option.get (R.find "go") in
  let prog, _ = P.prepare w.R.source in
  List.iter
    (fun (f : Func.t) ->
      let s = C.analyse f ~k:(Some 6) in
      Alcotest.(check int)
        (f.Func.fname ^ ": colors") (oracle_colors f) s.C.s_colors;
      Alcotest.(check int)
        (f.Func.fname ^ ": maxlive")
        (Rp_analysis.Pressure.maxlive (Rp_analysis.Pressure.compute f))
        s.C.s_maxlive;
      Alcotest.(check (option int))
        (f.Func.fname ^ ": spills")
        (Some (C.spills_for_func f ~k:6))
        s.C.s_spills)
    prog.Func.funcs

(* ------------------------------------------------------------------ *)
(* The budget gate *)

let run_with_regs ?(fuel = 80_000_000) ~regs (src : string) : P.report =
  let options = Helpers.with_regs regs { P.default_options with P.fuel } in
  let r = P.run ~options src in
  Alcotest.(check bool) "behaviour preserved under budget" true
    r.P.behaviour_ok;
  r

let spill_sums (r : P.report) : int * int =
  List.fold_left
    (fun (b, a) (fp : P.func_pressure) ->
      ( b + Option.value ~default:0 fp.P.fp_before.C.s_spills,
        a + Option.value ~default:0 fp.P.fp_after.C.s_spills ))
    (0, 0) r.P.pressure

(* the pinned contract on every seed workload, at the small register
   files the Table 3 extension reports *)
let test_no_worse_spills (w : R.workload) () =
  List.iter
    (fun k ->
      let r = run_with_regs ~regs:(Some k) w.R.source in
      let before, after = spill_sums r in
      if after > before then
        Alcotest.failf "%s at --regs %d: predicted spills %d -> %d (worse)"
          w.R.name k before after)
    [ 4; 6; 8 ]

(* an unbounded run reports pressure but no spill prediction *)
let test_unbounded_no_spills () =
  let w = Option.get (R.find "compr") in
  let r = run_with_regs ~regs:None w.R.source in
  Alcotest.(check bool) "pressure section present" true (r.P.pressure <> []);
  Alcotest.(check bool) "no spill prediction without a budget" true
    (List.for_all
       (fun (fp : P.func_pressure) ->
         fp.P.fp_before.C.s_spills = None && fp.P.fp_after.C.s_spills = None)
       r.P.pressure);
  Alcotest.(check bool) "regs recorded as unbounded" true
    (r.P.pressure_regs = None)

(* a crafted program where the budget visibly blocks promotion: four
   globals all hot in one loop.  Unbounded, all four promote; at a
   starvation budget the pressure gate must skip at least one web and
   still preserve behaviour. *)
let pressure_src =
  {|
int a = 1; int b = 2; int c = 3; int d = 4;
int main() {
  int i;
  for (i = 0; i < 200; i++) {
    a++; b++; c++; d++;
  }
  print(a); print(b); print(c); print(d);
  return 0;
}
|}

let test_budget_blocks () =
  let unbounded = run_with_regs ~regs:None pressure_src in
  let starved = run_with_regs ~regs:(Some 3) pressure_src in
  let promoted (r : P.report) = r.P.promote_stats.Pr.webs_promoted in
  let blocked (r : P.report) =
    r.P.promote_stats.Pr.webs_skipped_pressure
  in
  Alcotest.(check bool) "unbounded promotes webs" true
    (promoted unbounded > 0);
  Alcotest.(check int) "unbounded blocks nothing on pressure" 0
    (blocked unbounded);
  Alcotest.(check bool) "budget blocks at least one web" true
    (blocked starved >= 1);
  Alcotest.(check bool) "budget promotes fewer webs" true
    (promoted starved < promoted unbounded)

(* a huge budget behaves like no budget at all: same decisions *)
let test_large_budget_transparent () =
  let unbounded = run_with_regs ~regs:None pressure_src in
  let roomy = run_with_regs ~regs:(Some 64) pressure_src in
  Alcotest.(check int) "same promotions"
    unbounded.P.promote_stats.Pr.webs_promoted
    roomy.P.promote_stats.Pr.webs_promoted;
  Alcotest.(check int) "nothing pressure-blocked" 0
    roomy.P.promote_stats.Pr.webs_skipped_pressure

(* ------------------------------------------------------------------ *)
(* Determinism: the deterministic report bytes must not depend on
   [jobs] with a budget set either — the pressure measurement fans out
   per function over the pool. *)

let deterministic_json ~jobs ~regs (w : R.workload) : string =
  let module T = Rp_obs.Trace in
  let module M = Rp_obs.Metrics in
  T.set_sink T.Collect;
  T.reset ();
  M.reset ();
  T.set_deterministic true;
  Fun.protect
    ~finally:(fun () ->
      T.set_deterministic false;
      T.set_sink T.Off;
      T.reset ();
      M.reset ())
    (fun () ->
      let options =
        Helpers.with_regs regs
          { P.default_options with P.jobs; checkpoints = true; trace = true }
      in
      let r = P.run ~options w.R.source in
      Alcotest.(check bool) (w.R.name ^ ": behaviour ok") true r.P.behaviour_ok;
      Rp_obs.Json.to_string (P.json_report ~label:w.R.name r))

let test_budget_deterministic () =
  let w = Option.get (R.find "sc") in
  Alcotest.(check string)
    "JSON report byte-identical jobs=1 vs jobs=4 at --regs 6"
    (deterministic_json ~jobs:1 ~regs:(Some 6) w)
    (deterministic_json ~jobs:4 ~regs:(Some 6) w)

let suite =
  [
    qtest prop_pressure_coherent;
    qtest prop_colors_exact;
    qtest prop_chordal_exact;
    Alcotest.test_case "analyse agrees with the entry points it replaces"
      `Quick test_analyse_coherent;
    Alcotest.test_case "unbounded run: pressure yes, spill prediction no"
      `Quick test_unbounded_no_spills;
    Alcotest.test_case "starvation budget blocks webs" `Quick
      test_budget_blocks;
    Alcotest.test_case "large budget is transparent" `Quick
      test_large_budget_transparent;
    Alcotest.test_case "budget report deterministic across jobs" `Quick
      test_budget_deterministic;
  ]
  @ List.map
      (fun (w : R.workload) ->
        Alcotest.test_case
          ("no worse spills under budget: " ^ w.R.name)
          `Quick (test_no_worse_spills w))
      R.all
