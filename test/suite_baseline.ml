(* Tests for the Lu–Cooper-style loop-based baseline and its comparison
   against the paper's profile-driven algorithm. *)

open Rp_ir
module I = Rp_interp.Interp

(* Run the loop-based baseline end to end on a source. *)
let run_baseline src =
  let prog, trees = Rp_core.Pipeline.prepare src in
  let before = I.run prog in
  I.apply_profile prog before;
  ignore (Rp_baselines.Loop_promotion.promote_prog prog trees);
  List.iter (Rp_ssa.Verify.assert_ok prog.Func.vartab) prog.Func.funcs;
  Rp_opt.Cleanup.run_prog prog;
  let after = I.run prog in
  (before, after)

let test_baseline_promotes_clean_loop () =
  let src =
    {|
int g = 0;
int main() {
  int i;
  for (i = 0; i < 100; i++) { g = g + i; }
  print(g);
  return 0;
}
|}
  in
  let before, after = run_baseline src in
  Alcotest.(check bool) "behaviour" true (I.same_behaviour before after);
  Alcotest.(check bool) "loads removed" true
    (after.I.counters.I.loads * 4 < before.I.counters.I.loads);
  Alcotest.(check bool) "stores removed" true
    (after.I.counters.I.stores * 4 < before.I.counters.I.stores)

let cold_call_src =
  {|
int g = 0;
void rare() { g = g / 2; }
int main() {
  int i;
  for (i = 0; i < 200; i++) {
    g = g + 1;
    if (g == 190) { rare(); }    // cold path: the call kills Lu-Cooper
  }
  print(g);
  return 0;
}
|}

let test_baseline_blocked_by_call () =
  let before, after = run_baseline cold_call_src in
  Alcotest.(check bool) "behaviour" true (I.same_behaviour before after);
  (* Lu–Cooper: "the presence of function calls precludes any promotion
     even if these calls are executed very infrequently" — g must not
     be promoted *)
  Alcotest.(check bool) "no load improvement" true
    (after.I.counters.I.loads >= before.I.counters.I.loads - 2)

let test_paper_beats_baseline_on_cold_calls () =
  let _, base_after = run_baseline cold_call_src in
  let full = Helpers.check_pipeline "full vs baseline" cold_call_src in
  Alcotest.(check bool) "profile-driven wins" true
    (Helpers.dynamic_loads full.Rp_core.Pipeline.dynamic_after
    < base_after.I.counters.I.loads)

let test_baseline_on_workloads () =
  List.iter
    (fun (w : Rp_workloads.Registry.workload) ->
      let before, after = run_baseline w.Rp_workloads.Registry.source in
      Alcotest.(check bool)
        (w.Rp_workloads.Registry.name ^ ": baseline behaviour")
        true (I.same_behaviour before after);
      Alcotest.(check bool)
        (w.Rp_workloads.Registry.name ^ ": baseline never worse")
        true
        (after.I.counters.I.loads <= before.I.counters.I.loads))
    Rp_workloads.Registry.all

let test_baseline_ignores_root () =
  (* straight-line code outside loops is not the baseline's business *)
  let src = "int g = 5; int main() { g = g + 1; g = g + 2; print(g); return 0; }" in
  let before, after = run_baseline src in
  Alcotest.(check bool) "behaviour" true (I.same_behaviour before after);
  Alcotest.(check int) "loads unchanged" before.I.counters.I.loads
    after.I.counters.I.loads

(* The baseline's output on the workloads and a random sample, against
   test/golden/baseline.txt: a change to the baseline or to the
   promotion machinery it shares must leave every line in place. *)
let test_golden () =
  let golden =
    String.split_on_char '\n' Baseline_golden_text.text
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string))
    "baseline digests" golden
    (Rp_baseline_golden.Baseline_golden.lines ())

let suite =
  [
    Alcotest.test_case "promotes clean loop" `Quick test_baseline_promotes_clean_loop;
    Alcotest.test_case "blocked by cold call" `Quick test_baseline_blocked_by_call;
    Alcotest.test_case "paper beats baseline" `Quick
      test_paper_beats_baseline_on_cold_calls;
    Alcotest.test_case "baseline on workloads" `Slow test_baseline_on_workloads;
    Alcotest.test_case "ignores root level" `Quick test_baseline_ignores_root;
    Alcotest.test_case "golden digests" `Quick test_golden;
  ]
