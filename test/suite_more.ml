(* Additional coverage: incremental-update corner cases, normalisation
   idempotence, printer smoke tests, and frontend acceptance cases. *)

open Rp_ir
open Rp_analysis
open Rp_ssa

let res v n = { Resource.base = v; ver = n }

(* ------------------------------------------------------------------ *)
(* Incremental updater corner cases *)

(* A clone inside a loop body: the renaming must cross the back edge
   through a header phi. *)
let test_update_clone_in_loop () =
  let prog = Func.create_prog () in
  let x = Resource.add_var prog.Func.vartab ~name:"x" ~kind:Resource.Global ~init:0 in
  let f = Func.create_func ~name:"l" in
  Func.add_func prog f;
  let cond = Func.fresh_reg f in
  f.Func.params <- [ cond ];
  let b = Array.init 4 (fun _ -> Func.add_block f) in
  f.Func.entry <- b.(0).Block.bid;
  (* 0 -> 1; 1 -> 2 | 3; 2 -> 1; 3 ret.  x0 defined in 0, used in 3. *)
  b.(0).Block.term <- Block.Jmp 1;
  b.(1).Block.term <- Block.Br { cond = Instr.Reg cond; t = 2; f = 3 };
  b.(2).Block.term <- Block.Jmp 1;
  b.(3).Block.term <- Block.Ret None;
  Hashtbl.replace f.Func.mver x 1;
  Block.insert_at_end b.(0)
    (Func.mk_instr f (Instr.Store { dst = res x 1; src = Imm 1 }));
  let u =
    Func.mk_instr f (Instr.Load { dst = Func.fresh_reg f; src = res x 1 })
  in
  Block.insert_at_end b.(3) u;
  Cfg.recompute_preds f;
  Verify.assert_ok prog.Func.vartab f;
  (* clone a store in the loop body (block 2) *)
  let clone = Func.fresh_ver f x in
  Block.insert_at_end b.(2)
    (Func.mk_instr f (Instr.Store { dst = clone; src = Imm 2 }));
  Helpers.update f
    ~cloned_res:(Resource.ResSet.singleton clone);
  Verify.assert_ok prog.Func.vartab f;
  (* a phi at the header must join the original and the clone, and the
     use must read it (or a phi derived from it) *)
  (match Iseq.to_list (Func.block f 1).Block.phis with
  | [ { Instr.op = Instr.Mphi { dst; srcs }; _ } ] ->
      Alcotest.(check bool) "phi joins original and clone" true
        (List.sort compare (List.map snd srcs)
        = List.sort compare [ res x 1; clone ]);
      (match u.Instr.op with
      | Instr.Load { src; _ } ->
          Alcotest.(check bool) "use reads the header phi" true
            (Resource.equal src dst)
      | _ -> Alcotest.fail "use vanished")
  | _ -> Alcotest.fail "expected one phi at the loop header");
  (* the original store is still live (it reaches the phi via b0) *)
  Alcotest.(check int) "original store kept" 1
    (Iseq.length (Func.block f 0).Block.body)

(* Two clones in the same block: the later one shadows the earlier for
   downstream uses. *)
let test_update_two_clones_same_block () =
  let prog = Func.create_prog () in
  let x = Resource.add_var prog.Func.vartab ~name:"x" ~kind:Resource.Global ~init:0 in
  let f = Func.create_func ~name:"s" in
  Func.add_func prog f;
  let b0 = Func.add_block f and b1 = Func.add_block f in
  f.Func.entry <- b0.Block.bid;
  b0.Block.term <- Block.Jmp b1.Block.bid;
  b1.Block.term <- Block.Ret None;
  Hashtbl.replace f.Func.mver x 1;
  Block.insert_at_end b0
    (Func.mk_instr f (Instr.Store { dst = res x 1; src = Imm 0 }));
  let u = Func.mk_instr f (Instr.Load { dst = Func.fresh_reg f; src = res x 1 }) in
  Block.insert_at_end b1 u;
  Cfg.recompute_preds f;
  let c1 = Func.fresh_ver f x and c2 = Func.fresh_ver f x in
  (* insert c1 then c2 after it, both at the head of b1 *)
  let s1 = Func.mk_instr f (Instr.Store { dst = c1; src = Imm 1 }) in
  let s2 = Func.mk_instr f (Instr.Store { dst = c2; src = Imm 2 }) in
  Block.insert_at_start b1 s1;
  Block.insert_after b1 ~iid:s1.Instr.iid s2;
  Helpers.update f
    ~cloned_res:(Resource.ResSet.of_list [ c1; c2 ]);
  Verify.assert_ok prog.Func.vartab f;
  (match u.Instr.op with
  | Instr.Load { src; _ } ->
      Alcotest.(check bool) "use reads the LAST clone" true
        (Resource.equal src c2)
  | _ -> Alcotest.fail "use vanished");
  (* both x1's store and c1's store are dead and removed *)
  Alcotest.(check int) "b0 emptied" 0 (Iseq.length b0.Block.body);
  Alcotest.(check bool) "c1 store removed" true
    (Block.find_instr b1 ~iid:s1.Instr.iid = None)

(* The protect set keeps otherwise-dead definitions alive. *)
let test_update_protect () =
  let prog = Func.create_prog () in
  let x = Resource.add_var prog.Func.vartab ~name:"x" ~kind:Resource.Global ~init:0 in
  let f = Func.create_func ~name:"p" in
  Func.add_func prog f;
  let b0 = Func.add_block f in
  f.Func.entry <- b0.Block.bid;
  b0.Block.term <- Block.Ret None;
  Hashtbl.replace f.Func.mver x 1;
  let s_old = Func.mk_instr f (Instr.Store { dst = res x 1; src = Imm 0 }) in
  Block.insert_at_end b0 s_old;
  let c1 = Func.fresh_ver f x and c2 = Func.fresh_ver f x in
  let s1 = Func.mk_instr f (Instr.Store { dst = c1; src = Imm 1 }) in
  let s2 = Func.mk_instr f (Instr.Store { dst = c2; src = Imm 2 }) in
  Block.insert_at_end b0 s1;
  Block.insert_at_end b0 s2;
  Cfg.recompute_preds f;
  (* update for c1 only, protecting c2: c2's store must survive even
     though its resource has no uses *)
  Helpers.update f
    ~protect:(Resource.ResSet.singleton c2)
    ~cloned_res:(Resource.ResSet.singleton c1);
  Alcotest.(check bool) "protected store survives" true
    (Block.find_instr b0 ~iid:s2.Instr.iid <> None)

(* The paper's generality claim: converting a brand-new unversioned
   variable to SSA form with the same machinery. *)
let test_convert_new_variable () =
  let prog = Func.create_prog () in
  let x = Resource.add_var prog.Func.vartab ~name:"nx" ~kind:Resource.Global ~init:0 in
  let f = Func.create_func ~name:"c" in
  Func.add_func prog f;
  let cond = Func.fresh_reg f in
  f.Func.params <- [ cond ];
  let b = Array.init 4 (fun _ -> Func.add_block f) in
  f.Func.entry <- b.(0).Block.bid;
  (* diamond: 0 -> 1|2 -> 3; stores on both branches, use at the join *)
  b.(0).Block.term <- Block.Br { cond = Instr.Reg cond; t = 1; f = 2 };
  b.(1).Block.term <- Block.Jmp 3;
  b.(2).Block.term <- Block.Jmp 3;
  b.(3).Block.term <- Block.Ret None;
  Block.insert_at_end b.(1)
    (Func.mk_instr f (Instr.Store { dst = Resource.unversioned x; src = Imm 1 }));
  Block.insert_at_end b.(2)
    (Func.mk_instr f (Instr.Store { dst = Resource.unversioned x; src = Imm 2 }));
  let u =
    Func.mk_instr f (Instr.Load { dst = Func.fresh_reg f; src = Resource.unversioned x })
  in
  Block.insert_at_end b.(3) u;
  Block.insert_at_end b.(3)
    (Func.mk_instr f (Instr.Exit_use { muses = [ Resource.unversioned x ] }));
  Cfg.recompute_preds f;
  Incremental.convert_new_variable f x;
  Verify.assert_ok prog.Func.vartab f;
  (* a phi at the join merges the two fresh store versions and the use
     reads it *)
  match Iseq.to_list (Func.block f 3).Block.phis with
  | [ { Instr.op = Instr.Mphi { dst; srcs }; _ } ] ->
      Alcotest.(check int) "two sources" 2 (List.length srcs);
      List.iter
        (fun ((_, r) : Ids.bid * Resource.t) ->
          Alcotest.(check bool) "versioned" true (r.ver > 0))
        srcs;
      (match u.Instr.op with
      | Instr.Load { src; _ } ->
          Alcotest.(check bool) "use reads the phi" true (Resource.equal src dst)
      | _ -> Alcotest.fail "use vanished")
  | _ -> Alcotest.fail "expected one phi at the join"

(* ------------------------------------------------------------------ *)
(* Normalisation idempotence *)

let test_normalise_idempotent () =
  List.iter
    (fun (n, edges) ->
      let f = Helpers.func_of_edges ~n edges in
      ignore (Intervals.normalise f);
      let blocks_after_first = Func.num_blocks f in
      ignore (Intervals.normalise f);
      Alcotest.(check int) "no new blocks on the second pass"
        blocks_after_first (Func.num_blocks f))
    [
      (6, [ (0, 1); (1, 2); (2, 3); (3, 2); (3, 4); (4, 1); (4, 5) ]);
      (5, [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 2); (3, 4) ]);
      (4, [ (0, 1); (1, 2); (2, 1); (1, 3) ]);
    ]

(* ------------------------------------------------------------------ *)
(* Printer smoke tests: every stage of every workload prints *)

let test_pp_smoke () =
  List.iter
    (fun (w : Rp_workloads.Registry.workload) ->
      let prog = Rp_minic.Lower.compile w.Rp_workloads.Registry.source in
      Alcotest.(check bool) "lowered prints" true
        (String.length (Pp.prog_to_string prog) > 0);
      List.iter (fun f -> ignore (Intervals.normalise f)) prog.Func.funcs;
      List.iter Construct.run prog.Func.funcs;
      Alcotest.(check bool) "ssa prints" true
        (String.length (Pp.prog_to_string prog) > 0))
    [ List.hd Rp_workloads.Registry.all ]

(* ------------------------------------------------------------------ *)
(* Frontend acceptance: constructs that must round-trip through the
   whole pipeline *)

let acceptance_cases =
  [
    ( "chained assignment",
      "int g; int main() { int a; int b; a = b = g = 7; print(a + b + g); \
       return 0; }",
      [ 21 ] );
    ( "nested calls",
      {|
int add(int a, int b) { return a + b; }
int main() { print(add(add(1, 2), add(3, 4))); return 0; }
|},
      [ 10 ] );
    ( "pointer parameter writes",
      {|
void bump(int *p, int by) { *p = *p + by; }
int g = 10;
int main() {
  int l = 5;
  bump(&g, 1);
  bump(&l, 2);
  print(g); print(l);
  return 0;
}
|},
      [ 11; 7 ] );
    ( "array walk via pointer",
      {|
int a[6];
int main() {
  int *p = a;
  int i;
  for (i = 0; i < 6; i++) { *p = i * i; p = p + 1; }
  print(a[0] + a[1] + a[2] + a[3] + a[4] + a[5]);
  return 0;
}
|},
      [ 55 ] );
    ( "struct field pointer",
      {|
struct V { int x; int y; };
struct V v;
int main() {
  int *px = &v.x;
  *px = 9;
  v.y = v.x * 2;
  print(v.x + v.y);
  return 0;
}
|},
      [ 27 ] );
    ( "logical operators drive control flow",
      {|
int g = 0;
int check(int v) { g = g + 1; return v; }
int main() {
  if (check(1) && check(0) || check(1)) { print(100); }
  print(g);
  return 0;
}
|},
      [ 100; 3 ] );
    ( "deeply nested expressions",
      "int main() { print(((((1 + 2) * (3 + 4)) - ((5 - 6) * (7 + 8))) << 1) \
       >> 1); return 0; }",
      [ 36 ] );
    ( "comments everywhere",
      "int /* a */ main( /* b */ ) { // c\n  return /* d */ 0; } // e",
      [] );
  ]

let test_acceptance () =
  List.iter
    (fun (name, src, expected) ->
      let r = Helpers.check_pipeline name src in
      Alcotest.(check (list int)) name expected
        r.Rp_core.Pipeline.final.Rp_interp.Interp.output)
    acceptance_cases

let suite =
  [
    Alcotest.test_case "update: clone in loop" `Quick test_update_clone_in_loop;
    Alcotest.test_case "update: two clones same block" `Quick
      test_update_two_clones_same_block;
    Alcotest.test_case "update: protect set" `Quick test_update_protect;
    Alcotest.test_case "update: convert new variable" `Quick
      test_convert_new_variable;
    Alcotest.test_case "normalise idempotent" `Quick test_normalise_idempotent;
    Alcotest.test_case "printer smoke" `Quick test_pp_smoke;
    Alcotest.test_case "frontend acceptance" `Quick test_acceptance;
  ]
