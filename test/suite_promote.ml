(* Tests for the promotion algorithm itself, built around the paper's
   running examples. *)

open Rp_ir
module P = Rp_core.Pipeline
module Pr = Rp_core.Promote
module I = Rp_interp.Interp

(* The paper's Figure 1: x hot in the first loop, then a call loop. *)
let fig1_src =
  {|
int x = 0;
void foo() { x = x + 2; }
int main() {
  int i;
  for (i = 0; i < 100; i++) { x++; }
  for (i = 0; i < 10; i++) { foo(); }
  print(x);
  return 0;
}
|}

let test_fig1 () =
  let r = Helpers.check_pipeline "fig1" fig1_src in
  Helpers.check_output "fig1 result" [ 120 ] r.P.final;
  (* the first loop's ~100 loads and ~100 stores must collapse: the
     paper reduces them "to two: a load before entering the first loop
     and a store after exiting" *)
  Alcotest.(check bool) "loads collapse" true
    (Helpers.dynamic_loads r.P.dynamic_after
    <= Helpers.dynamic_loads r.P.dynamic_before - 95);
  Alcotest.(check bool) "stores collapse" true
    (Helpers.dynamic_stores r.P.dynamic_after
    <= Helpers.dynamic_stores r.P.dynamic_before - 95);
  Alcotest.(check bool) "some web used store removal" true
    (r.P.promote_stats.Pr.webs_store_removal >= 1)

(* The paper's Figure 7: a call on a rarely executed path inside the
   loop; promotion places the load and store into the cold branch. *)
let fig7_src =
  {|
int x = 0;
int noise = 0;
void foo() { noise++; }
int main() {
  int i;
  for (i = 0; i < 100; i++) {
    x++;
    if (x < 30) {
      foo();        // taken for the first 29 iterations only: cold
    }
  }
  print(x); print(noise);
  return 0;
}
|}

let test_fig7 () =
  let r = Helpers.check_pipeline "fig7" fig7_src in
  let lb = Helpers.dynamic_loads r.P.dynamic_before in
  let la = Helpers.dynamic_loads r.P.dynamic_after in
  let sb = Helpers.dynamic_stores r.P.dynamic_before in
  let sa = Helpers.dynamic_stores r.P.dynamic_after in
  (* before: a load and a store every iteration (plus foo's own);
     after: loads/stores only on the cold path iterations *)
  Alcotest.(check bool) "loads mostly gone" true (la * 2 < lb);
  Alcotest.(check bool) "stores mostly gone" true (sa * 2 < sb);
  Alcotest.(check bool) "store removal happened" true
    (r.P.promote_stats.Pr.webs_store_removal >= 1)

(* With the call on the HOT path instead, the profitability test must
   refuse to remove the stores. *)
let hot_call_src =
  {|
int x = 0;
void foo() { x = x / 2; }
int main() {
  int i;
  for (i = 0; i < 100; i++) {
    x++;
    if (x > 0) {
      foo();       // always taken: hot path
    }
  }
  print(x);
  return 0;
}
|}

let test_hot_call_keeps_stores () =
  let r = Helpers.check_pipeline "hot call" hot_call_src in
  let sb = Helpers.dynamic_stores r.P.dynamic_before in
  let sa = Helpers.dynamic_stores r.P.dynamic_after in
  (* placing compensation stores before a hot call buys nothing, so
     dynamic stores must not improve materially *)
  Alcotest.(check bool) "stores not removed on hot path" true (sa >= sb - 5)

(* No-definition web: a loop that only reads a global gets exactly one
   load in the preheader. *)
let test_read_only_web () =
  let src =
    {|
int limit = 500;
int main() {
  int s = 0;
  int i;
  for (i = 0; i < 100; i++) {
    s = s + limit;     // only loads of limit in the loop
  }
  print(s);
  return 0;
}
|}
  in
  let r = Helpers.check_pipeline "read-only web" src in
  Helpers.check_output "sum" [ 50000 ] r.P.final;
  (* one load remains (in the preheader) instead of 100 *)
  Alcotest.(check bool) "single load" true
    (Helpers.dynamic_loads r.P.dynamic_after <= 2);
  Alcotest.(check bool) "a no-defs web promoted" true
    (r.P.promote_stats.Pr.webs_promoted_no_defs >= 1)

(* A global modified in a loop must reach memory before the function
   returns (the Exit_use mechanism). *)
let test_exit_consistency () =
  let src =
    {|
int g = 0;
void work() {
  int i;
  for (i = 0; i < 50; i++) { g = g + 3; }
}
int main() {
  work();
  print(g);        // must observe 150
  return 0;
}
|}
  in
  let r = Helpers.check_pipeline "exit consistency" src in
  Helpers.check_output "g observed" [ 150 ] r.P.final

(* Aliased stores through pointers force reloads; behaviour stays
   correct even when promotion keeps the value in a register. *)
let test_pointer_clobber () =
  let src =
    {|
int x = 0;
int main() {
  int *p = &x;
  int i;
  int s = 0;
  for (i = 0; i < 40; i++) {
    x = x + 1;
    if (i % 10 == 9) {
      *p = 100;        // aliased store on a cold-ish path
    }
    s = s + x;
  }
  print(x); print(s);
  return 0;
}
|}
  in
  ignore (Helpers.check_pipeline "pointer clobber" src)

(* Struct fields are promoted independently (finer webs). *)
let test_struct_fields_promote () =
  let src =
    {|
struct Acc { int lo; int hi; };
struct Acc acc;
int main() {
  int i;
  for (i = 0; i < 200; i++) {
    acc.lo = acc.lo + i;
    if (acc.lo > 1000) {
      acc.hi = acc.hi + 1;
      acc.lo = acc.lo - 1000;
    }
  }
  print(acc.lo); print(acc.hi);
  return 0;
}
|}
  in
  let r = Helpers.check_pipeline "struct fields" src in
  Alcotest.(check bool) "field loads reduced" true
    (Helpers.dynamic_loads r.P.dynamic_after * 2
    < Helpers.dynamic_loads r.P.dynamic_before)

(* min_profit as a knob: with an impossibly high threshold nothing is
   promoted and counts do not change. *)
let test_min_profit_disables () =
  let cfg =
    {
      Pr.default_config with
      Pr.cost = { Rp_core.Cost_model.min_profit = 1e18; regs = None };
    }
  in
  let r = Helpers.check_pipeline ~cfg "min profit" fig1_src in
  Alcotest.(check int) "no webs promoted" 0 r.P.promote_stats.Pr.webs_promoted;
  Alcotest.(check int) "dynamic loads unchanged"
    (Helpers.dynamic_loads r.P.dynamic_before)
    (Helpers.dynamic_loads r.P.dynamic_after)

(* allow_store_removal = false: loads still promote, stores stay. *)
let test_no_store_removal_config () =
  let cfg = { Pr.default_config with Pr.allow_store_removal = false } in
  let r = Helpers.check_pipeline ~cfg "no store removal" fig1_src in
  Alcotest.(check int) "no store-removal webs" 0
    r.P.promote_stats.Pr.webs_store_removal;
  Alcotest.(check bool) "stores unchanged" true
    (Helpers.dynamic_stores r.P.dynamic_after
    >= Helpers.dynamic_stores r.P.dynamic_before - 2);
  Alcotest.(check bool) "loads still improve" true
    (Helpers.dynamic_loads r.P.dynamic_after
    < Helpers.dynamic_loads r.P.dynamic_before)

(* Static-estimate profile still gives a correct (if less targeted)
   transformation. *)
let test_static_profile () =
  let r =
    Helpers.check_pipeline ~profile:P.Static_estimate "static profile" fig7_src
  in
  Alcotest.(check bool) "some promotion happened" true
    (r.P.promote_stats.Pr.webs_promoted >= 1)

(* Both IDF engines drive the promoter to the same dynamic counts. *)
let test_engines_agree () =
  let run engine =
    let cfg = { Pr.default_config with Pr.engine } in
    let r = Helpers.check_pipeline ~cfg "engines" fig7_src in
    ( Helpers.dynamic_loads r.P.dynamic_after,
      Helpers.dynamic_stores r.P.dynamic_after )
  in
  Alcotest.(check (pair int int))
    "cytron = sreedhar-gao"
    (run Rp_ssa.Incremental.Cytron)
    (run Rp_ssa.Incremental.Sreedhar_gao)

(* After the pipeline, no dummy aliased loads may survive. *)
let test_no_dummies_remain () =
  let r = Helpers.check_pipeline "dummies" fig1_src in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_blocks
        (fun b ->
          Block.iter_instrs
            (fun i ->
              Alcotest.(check bool) "no dummy remains" false (Instr.is_dummy i))
            b)
        f)
    r.P.prog.Func.funcs

(* Promotion of a global that is dead on some paths must still verify
   and behave; exercises the live-out tail store logic. *)
let test_multi_exit_loop () =
  let src =
    {|
int g = 0;
int main() {
  int i = 0;
  while (1) {
    g = g + 2;
    if (g > 50) { break; }
    if (i > 100) { break; }
    i++;
  }
  print(g); print(i);
  return 0;
}
|}
  in
  ignore (Helpers.check_pipeline "multi-exit loop" src)

(* Nested loops: the inner interval promotes first, the outer absorbs
   the boundary loads/stores (the paper's recursive propagation). *)
let test_nested_loops () =
  let src =
    {|
int g = 0;
int main() {
  int i;
  int j;
  for (i = 0; i < 20; i++) {
    for (j = 0; j < 30; j++) {
      g = g + 1;
    }
  }
  print(g);
  return 0;
}
|}
  in
  let r = Helpers.check_pipeline "nested loops" src in
  Helpers.check_output "count" [ 600 ] r.P.final;
  (* 600 loads/stores inside; after recursive promotion only O(1) remain *)
  Alcotest.(check bool) "loads hoisted out of both loops" true
    (Helpers.dynamic_loads r.P.dynamic_after <= 3);
  Alcotest.(check bool) "stores hoisted out of both loops" true
    (Helpers.dynamic_stores r.P.dynamic_after <= 3)

(* do-while (bottom-test) loops work too. *)
let test_do_while () =
  let src =
    {|
int g = 5;
int main() {
  int i = 0;
  do {
    g = g * 2 % 1000;
    i++;
  } while (i < 100);
  print(g);
  return 0;
}
|}
  in
  let r = Helpers.check_pipeline "do-while" src in
  Alcotest.(check bool) "loads reduced" true
    (Helpers.dynamic_loads r.P.dynamic_after * 4
    < Helpers.dynamic_loads r.P.dynamic_before)

(* A pointer store's weak update uses the version it may overwrite, so
   a store-removal web whose store feeds only that use adds no clone,
   runs no SSA update, and still must keep its store: the dead-store
   check has to see uses in instruction bodies, not just phi operands. *)
let test_weak_update_keeps_store () =
  let src =
    {|
int g;
int h;
int main() {
  int i;
  int *p;
  p = &h;
  if (g > 100) { p = &g; }
  i = 0;
  while (i < 100) {
    g = i;
    *p = 7;
    i = i + 1;
  }
  print(g);
  print(h);
  return 0;
}
|}
  in
  let r = Helpers.check_pipeline "weak update" src in
  Helpers.check_output "g and h" [ 99; 7 ] r.P.final;
  Alcotest.(check bool) "store removal attempted" true
    (r.P.promote_stats.Pr.webs_store_removal >= 1);
  Alcotest.(check int) "store kept" 0 r.P.promote_stats.Pr.stores_deleted

let suite =
  [
    Alcotest.test_case "paper figure 1" `Quick test_fig1;
    Alcotest.test_case "paper figure 7 (cold call)" `Quick test_fig7;
    Alcotest.test_case "hot call keeps stores" `Quick test_hot_call_keeps_stores;
    Alcotest.test_case "read-only web" `Quick test_read_only_web;
    Alcotest.test_case "exit consistency" `Quick test_exit_consistency;
    Alcotest.test_case "pointer clobber" `Quick test_pointer_clobber;
    Alcotest.test_case "struct fields promote" `Quick test_struct_fields_promote;
    Alcotest.test_case "min_profit disables" `Quick test_min_profit_disables;
    Alcotest.test_case "store removal config" `Quick test_no_store_removal_config;
    Alcotest.test_case "static profile" `Quick test_static_profile;
    Alcotest.test_case "IDF engines agree" `Quick test_engines_agree;
    Alcotest.test_case "no dummies remain" `Quick test_no_dummies_remain;
    Alcotest.test_case "multi-exit loop" `Quick test_multi_exit_loop;
    Alcotest.test_case "nested loops" `Quick test_nested_loops;
    Alcotest.test_case "do-while" `Quick test_do_while;
    Alcotest.test_case "weak update keeps store" `Quick
      test_weak_update_keeps_store;
  ]
