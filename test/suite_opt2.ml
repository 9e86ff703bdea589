(* Tests for the second-wave SSA optimizations: GVN, DSE. *)

open Rp_ir
open Rp_analysis
open Rp_ssa
module I = Rp_interp.Interp

let prep src =
  let prog = Rp_minic.Lower.compile src in
  List.iter (fun f -> ignore (Intervals.normalise f)) prog.Func.funcs;
  List.iter Construct.run prog.Func.funcs;
  prog

let count pred prog =
  List.fold_left
    (fun acc (f : Func.t) ->
      Func.fold_blocks
        (fun acc b ->
          List.fold_left
            (fun acc (i : Instr.t) -> if pred i.Instr.op then acc + 1 else acc)
            acc (Block.instrs b))
        acc f)
    0 prog.Func.funcs

let behaviour_preserved name src transform =
  let prog = prep src in
  let before = I.run prog in
  transform prog;
  List.iter (Verify.assert_ok prog.Func.vartab) prog.Func.funcs;
  let after = I.run prog in
  Alcotest.(check bool) (name ^ ": behaviour") true
    (I.same_behaviour before after);
  prog

(* ------------------------------------------------------------------ *)
(* GVN *)

let test_gvn_arithmetic () =
  let src =
    {|
int main() {
  int a = 7;
  int b = 9;
  int x = a * b;
  int y = b * a;      // commutative duplicate
  int z = a * b;      // exact duplicate
  print(x + y + z);
  return 0;
}
|}
  in
  let prog =
    behaviour_preserved "gvn arith" src (fun prog ->
        List.iter (fun f -> ignore (Rp_opt.Gvn.run f)) prog.Func.funcs;
        Rp_opt.Cleanup.run_prog prog)
  in
  let muls =
    count (function Instr.Bin { op = Instr.Mul; _ } -> true | _ -> false) prog
  in
  Alcotest.(check int) "one multiply survives" 1 muls

let test_gvn_loads_same_version () =
  (* two loads of the same memory SSA version see the same value: the
     paper's point about treating memory uniformly *)
  let src =
    {|
int g = 5;
int main() {
  int a = g;
  int b = g;          // same version of g: redundant load
  print(a + b);
  g = 7;
  int c = g;          // new version: must load again
  print(c);
  return 0;
}
|}
  in
  let prog =
    behaviour_preserved "gvn loads" src (fun prog ->
        List.iter (fun f -> ignore (Rp_opt.Gvn.run f)) prog.Func.funcs;
        Rp_opt.Cleanup.run_prog prog)
  in
  let loads = count (function Instr.Load _ -> true | _ -> false) prog in
  Alcotest.(check int) "two loads survive" 2 loads

let test_gvn_respects_dominance () =
  (* equal expressions on sibling branches must NOT be merged *)
  let src =
    {|
int g = 0;
int main() {
  int a = 3;
  int r = 0;
  if (g) { r = a + 1; } else { r = a + 1; }
  print(r);
  return 0;
}
|}
  in
  ignore
    (behaviour_preserved "gvn dominance" src (fun prog ->
         List.iter (fun f -> ignore (Rp_opt.Gvn.run f)) prog.Func.funcs;
         Rp_opt.Cleanup.run_prog prog))

let test_gvn_on_workloads () =
  List.iter
    (fun (w : Rp_workloads.Registry.workload) ->
      ignore
        (behaviour_preserved
           ("gvn " ^ w.Rp_workloads.Registry.name)
           w.Rp_workloads.Registry.source
           (fun prog ->
             List.iter (fun f -> ignore (Rp_opt.Gvn.run f)) prog.Func.funcs;
             Rp_opt.Cleanup.run_prog prog)))
    Rp_workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* DSE *)

let test_dse_removes_overwritten_store () =
  let src =
    {|
int g = 0;
int main() {
  g = 1;        // dead: overwritten before any observation
  g = 2;
  print(g);
  return 0;
}
|}
  in
  let prog =
    behaviour_preserved "dse overwrite" src (fun prog ->
        ignore (Rp_opt.Dse.run_prog prog))
  in
  let stores = count (function Instr.Store _ -> true | _ -> false) prog in
  Alcotest.(check int) "one store survives" 1 stores

let test_dse_keeps_observed_stores () =
  let src =
    {|
int g = 0;
void peek() { print(g); }
int main() {
  g = 1;        // observed by the call
  peek();
  g = 2;        // observed by print and by the exit
  print(g);
  return 0;
}
|}
  in
  let prog =
    behaviour_preserved "dse observed" src (fun prog ->
        ignore (Rp_opt.Dse.run_prog prog))
  in
  let stores = count (function Instr.Store _ -> true | _ -> false) prog in
  Alcotest.(check int) "both stores survive" 2 stores

let test_dse_keeps_exit_visible_stores () =
  (* a store with no later use in this function is still live: the
     caller can observe the global (Exit_use) *)
  let src =
    {|
int g = 0;
void set() { g = 42; }
int main() { set(); print(g); return 0; }
|}
  in
  let prog =
    behaviour_preserved "dse exit" src (fun prog ->
        ignore (Rp_opt.Dse.run_prog prog))
  in
  let stores = count (function Instr.Store _ -> true | _ -> false) prog in
  Alcotest.(check int) "the store in set() survives" 1 stores

let test_dse_addr_local_dead_at_exit () =
  (* an address-taken local's last store is dead at function exit *)
  let src =
    {|
int use(int *p) { return *p; }
int main() {
  int x = 0;
  int r = use(&x);
  x = 99;          // dead: x is never observable again
  print(r);
  return 0;
}
|}
  in
  let prog =
    behaviour_preserved "dse local" src (fun prog ->
        ignore (Rp_opt.Dse.run_prog prog))
  in
  let dead_99 =
    count
      (function Instr.Store { src = Instr.Imm 99; _ } -> true | _ -> false)
      prog
  in
  Alcotest.(check int) "the dead store is gone" 0 dead_99

(* ------------------------------------------------------------------ *)
(* interplay: the full optimizing pipeline stays correct *)

let test_all_passes_after_promotion () =
  List.iter
    (fun (w : Rp_workloads.Registry.workload) ->
      let report =
        Rp_core.Pipeline.run
          ~options:
            { Rp_core.Pipeline.default_options with fuel = 80_000_000 }
          w.Rp_workloads.Registry.source
      in
      let prog = report.Rp_core.Pipeline.prog in
      List.iter (fun f -> ignore (Rp_opt.Gvn.run f)) prog.Func.funcs;
      ignore (Rp_opt.Dse.run_prog prog);
      Rp_opt.Cleanup.run_prog prog;
      List.iter (Verify.assert_ok prog.Func.vartab) prog.Func.funcs;
      let final = I.run ~fuel:80_000_000 prog in
      Alcotest.(check bool)
        (w.Rp_workloads.Registry.name ^ ": promote+gvn+dse behaviour")
        true
        (I.same_behaviour report.Rp_core.Pipeline.baseline final))
    Rp_workloads.Registry.all

let suite =
  [
    Alcotest.test_case "gvn arithmetic" `Quick test_gvn_arithmetic;
    Alcotest.test_case "gvn same-version loads" `Quick test_gvn_loads_same_version;
    Alcotest.test_case "gvn respects dominance" `Quick test_gvn_respects_dominance;
    Alcotest.test_case "gvn on workloads" `Slow test_gvn_on_workloads;
    Alcotest.test_case "dse overwritten store" `Quick test_dse_removes_overwritten_store;
    Alcotest.test_case "dse observed stores" `Quick test_dse_keeps_observed_stores;
    Alcotest.test_case "dse exit-visible stores" `Quick test_dse_keeps_exit_visible_stores;
    Alcotest.test_case "dse dead local store" `Quick test_dse_addr_local_dead_at_exit;
    Alcotest.test_case "promote+sccp+gvn+dse on workloads" `Slow
      test_all_passes_after_promotion;
  ]
