(* The IR checkers on hand-broken functions: every error of
   [Rp_ir.Validate] and of [Rp_ssa.Verify], with its exact message and
   location.  Locations are built only when an error is reported, so
   these are the only tests that reach that path. *)

open Rp_ir
module V = Rp_ssa.Verify

let res base ver = { Resource.base; ver }

(* A program with one global [x] and an empty function [f]. *)
let setup () =
  let prog = Func.create_prog () in
  let x =
    Resource.add_var prog.Func.vartab ~name:"x" ~kind:Resource.Global ~init:0
  in
  let f = Func.create_func ~name:"f" in
  Func.add_func prog f;
  (prog.Func.vartab, f, x)

(* [n] blocks; block 0 is the entry *)
let blocks f n =
  let bs = Array.init n (fun _ -> Func.add_block f) in
  f.Func.entry <- 0;
  bs

(* b0 branches on a parameter to b1 and b2, which join at b3 *)
let diamond f =
  let b = blocks f 4 in
  let c = Func.fresh_reg f in
  f.Func.params <- [ c ];
  b.(0).Block.term <- Block.Br { cond = Instr.Reg c; t = 1; f = 2 };
  b.(1).Block.term <- Block.Jmp 3;
  b.(2).Block.term <- Block.Jmp 3;
  b.(3).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  b

let add b f op =
  let i = Func.mk_instr f op in
  Block.insert_at_end b i;
  i

let pairs_of_validate = List.map (fun (e : Validate.error) -> (e.where, e.what))

let pairs_of_verify = List.map (fun (e : V.error) -> (e.where, e.what))

let check what want got =
  Alcotest.(check (list (pair string string))) what want got

(* ------------------------------------------------------------------ *)
(* Validate *)

let test_entry_dead () =
  let tab, f, _ = setup () in
  let b = blocks f 1 in
  b.(0).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  f.Func.entry <- 5;
  check "entry" [ ("f", "entry block b5 is dead or out of range") ]
    (pairs_of_validate (Validate.check_func tab f))

let test_branch_target_dead () =
  let tab, f, _ = setup () in
  let b = blocks f 2 in
  b.(0).Block.term <- Block.Jmp 1;
  b.(1).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  b.(1).Block.dead <- true;
  check "dead target" [ ("f/b0", "branch target b1 is dead") ]
    (pairs_of_validate (Validate.check_func tab f))

let test_stale_preds () =
  let tab, f, _ = setup () in
  let b = blocks f 2 in
  b.(0).Block.term <- Block.Jmp 1;
  b.(1).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  b.(1).Block.preds <- [ 7; 0 ];
  check "stale preds"
    [ ("f/b1", "stale predecessor cache: cached {0,7} actual {0}") ]
    (pairs_of_validate (Validate.check_func tab f))

let test_phi_placement () =
  let tab, f, x = setup () in
  let b = blocks f 2 in
  b.(0).Block.term <- Block.Jmp 1;
  b.(1).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  let copy = Func.mk_instr f (Instr.Copy { dst = Func.fresh_reg f; src = Imm 1 }) in
  Iseq.push_back b.(1).Block.phis copy;
  let phi =
    add b.(1) f (Instr.Mphi { dst = res x 2; srcs = [ (0, res x 1) ] })
  in
  check "placement"
    [
      ("f/b1", Printf.sprintf "non-phi instruction in phi section (iid %d)" copy.iid);
      ("f/b1", Printf.sprintf "phi instruction in body (iid %d)" phi.iid);
    ]
    (pairs_of_validate (Validate.check_func tab f))

let test_phi_sources () =
  let tab, f, x = setup () in
  let b = diamond f in
  let phi srcs =
    Block.add_phi b.(3) (Func.mk_instr f (Instr.Mphi { dst = res x 9; srcs }))
  in
  (* the cached preds order, and the reverse: both match *)
  phi [ (1, res x 1); (2, res x 2) ];
  phi [ (2, res x 2); (1, res x 1) ];
  check "matching sources" [] (pairs_of_validate (Validate.check_func tab f));
  (* a source from a non-predecessor, listed out of order; and a
     missing source *)
  phi [ (5, res x 1); (2, res x 2) ];
  phi [ (1, res x 1) ];
  check "mismatched sources"
    [
      ("f/b3", "phi sources {1} do not match preds {1,2}");
      ("f/b3", "phi sources {2,5} do not match preds {1,2}");
    ]
    (pairs_of_validate (Validate.check_func tab f))

let test_duplicate_iid () =
  let tab, f, _ = setup () in
  let b = blocks f 2 in
  b.(0).Block.term <- Block.Jmp 1;
  b.(1).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  let i = add b.(0) f (Instr.Print { src = Imm 1 }) in
  Block.insert_at_end b.(1) (Instr.make i.iid (Instr.Print { src = Imm 2 }));
  check "duplicate"
    [ ("f/b1", Printf.sprintf "duplicate instruction id %d" i.iid) ]
    (pairs_of_validate (Validate.check_func tab f))

(* One block with every per-instruction error, reported by class:
   placement (phi section, then body), phi arity, duplicate ids. *)
let test_validate_order () =
  let tab, f, x = setup () in
  let b = diamond f in
  let dup = add b.(3) f (Instr.Print { src = Imm 1 }) in
  let phi =
    add b.(3) f (Instr.Mphi { dst = res x 3; srcs = [ (1, res x 1) ] })
  in
  Block.add_phi b.(3)
    (Func.mk_instr f (Instr.Mphi { dst = res x 2; srcs = [ (2, res x 1) ] }));
  let copy =
    Func.mk_instr f (Instr.Copy { dst = Func.fresh_reg f; src = Imm 1 })
  in
  Iseq.push_back b.(3).Block.phis copy;
  Block.insert_at_end b.(3) (Instr.make dup.iid (Instr.Print { src = Imm 2 }));
  Iseq.push_back b.(3).Block.phis
    (Instr.make copy.iid (Instr.Print { src = Imm 3 }));
  let placement =
    Printf.sprintf "non-phi instruction in phi section (iid %d)" copy.iid
  in
  check "order"
    [
      ("f/b3", placement);
      ("f/b3", placement);
      ("f/b3", Printf.sprintf "phi instruction in body (iid %d)" phi.iid);
      ("f/b3", "phi sources {2} do not match preds {1,2}");
      ("f/b3", Printf.sprintf "duplicate instruction id %d" copy.iid);
      ("f/b3", Printf.sprintf "duplicate instruction id %d" dup.iid);
    ]
    (pairs_of_validate (Validate.check_func tab f))

(* ------------------------------------------------------------------ *)
(* Verify *)

let test_single_assignment () =
  let tab, f, x = setup () in
  let b = blocks f 1 in
  b.(0).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  Hashtbl.replace f.Func.mver x 1;
  let r = Func.fresh_reg f in
  ignore (add b.(0) f (Instr.Copy { dst = r; src = Imm 1 }));
  ignore (add b.(0) f (Instr.Copy { dst = r; src = Imm 2 }));
  ignore (add b.(0) f (Instr.Store { dst = res x 1; src = Imm 1 }));
  ignore (add b.(0) f (Instr.Store { dst = res x 1; src = Imm 2 }));
  ignore (add b.(0) f (Instr.Load { dst = Func.fresh_reg f; src = res x 0 }));
  check "single assignment"
    [
      ("f", Printf.sprintf "register t%d defined more than once" r);
      ("f", "resource x_1 defined more than once");
      ("f", "unversioned resource x");
    ]
    (pairs_of_verify (V.check tab f))

let test_undefined_register () =
  let tab, f, _ = setup () in
  let b = blocks f 2 in
  b.(0).Block.term <- Block.Jmp 1;
  let r = Func.fresh_reg f and t = Func.fresh_reg f in
  b.(1).Block.term <- Block.Ret (Some (Instr.Reg t));
  Cfg.recompute_preds f;
  ignore (add b.(0) f (Instr.Print { src = Reg r }));
  check "undefined"
    [
      ("f/b0", Printf.sprintf "register t%d used but never defined" r);
      ("f/b1", Printf.sprintf "register t%d used but never defined" t);
    ]
    (pairs_of_verify (V.check tab f))

let test_dominance () =
  let tab, f, x = setup () in
  let b = diamond f in
  Hashtbl.replace f.Func.mver x 1;
  let r = Func.fresh_reg f and s = Func.fresh_reg f in
  ignore (add b.(1) f (Instr.Copy { dst = r; src = Imm 1 }));
  ignore (add b.(1) f (Instr.Store { dst = res x 1; src = Imm 1 }));
  (* a use before its definition in the same block *)
  ignore (add b.(2) f (Instr.Print { src = Reg s }));
  ignore (add b.(2) f (Instr.Copy { dst = s; src = Imm 2 }));
  (* uses at the join, which neither b1 nor b2 dominates *)
  ignore (add b.(3) f (Instr.Print { src = Reg r }));
  ignore (add b.(3) f (Instr.Load { dst = Func.fresh_reg f; src = res x 1 }));
  (* a phi source is used at the end of its predecessor: [s] flows in
     from b1 but is defined in b2, [r] the other way round *)
  Block.add_phi b.(3)
    (Func.mk_instr f
       (Instr.Rphi { dst = Func.fresh_reg f; srcs = [ (1, s); (2, r) ] }));
  check "dominance"
    [
      ("f/b2", Printf.sprintf "use of t%d not dominated by its definition" s);
      ("f/b3", Printf.sprintf "use of t%d not dominated by its definition" r);
      ("f/b3", "use of x_1 not dominated by its definition");
      ("f/b3", Printf.sprintf "use of t%d not dominated by its definition" s);
      ("f/b3", Printf.sprintf "use of t%d not dominated by its definition" r);
    ]
    (pairs_of_verify (V.check tab f))

(* A memory phi joins versions of its target's variable only: no
   producer makes any other, and a web is one variable's versions. *)
let test_cross_variable_phi () =
  let tab, f, x = setup () in
  let y = Resource.add_var tab ~name:"y" ~kind:Resource.Global ~init:0 in
  let b = diamond f in
  Block.add_phi b.(3)
    (Func.mk_instr f
       (Instr.Mphi { dst = res x 3; srcs = [ (1, res x 1); (2, res y 1) ] }));
  check "cross-variable phi"
    [ ("f/b3", "memory phi of x joins y_1, a version of another variable") ]
    (pairs_of_verify (V.check tab f))

(* A variable is renamed or unversioned as a whole.  Unversioned, it
   occurs at version 0 in aliased lists only, where two may-definitions
   are no double assignment; a version of it anywhere makes it renamed,
   and then its version 0 is an error. *)
let call f b ~mdefs ~muses =
  ignore
    (add b f
       (Instr.Call { dst = None; callee = Instr.Extern "g"; args = []; mdefs; muses }))

let test_unversioned_in_calls () =
  let tab, f, x = setup () in
  let b = blocks f 1 in
  b.(0).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  call f b.(0) ~mdefs:[ res x 0 ] ~muses:[ res x 0 ];
  call f b.(0) ~mdefs:[ res x 0 ] ~muses:[ res x 0 ];
  ignore (add b.(0) f (Instr.Exit_use { muses = [ res x 0 ] }));
  check "unversioned variable" [] (pairs_of_verify (V.check tab f))

let test_mixed_versions () =
  let tab, f, x = setup () in
  let b = blocks f 1 in
  b.(0).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  call f b.(0) ~mdefs:[] ~muses:[ res x 0 ];
  call f b.(0) ~mdefs:[ res x 2 ] ~muses:[];
  check "version 0 of a renamed variable"
    [ ("f", "unversioned resource x") ]
    (pairs_of_verify (V.check tab f))

let test_singleton_of_unversioned () =
  let tab, f, x = setup () in
  let b = blocks f 2 in
  b.(0).Block.term <- Block.Jmp 1;
  b.(1).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  ignore (add b.(0) f (Instr.Load { dst = Func.fresh_reg f; src = res x 0 }));
  ignore (add b.(1) f (Instr.Store { dst = res x 0; src = Imm 1 }));
  check "singleton access"
    [
      ("f/b0", "singleton load of unversioned variable x");
      ("f/b1", "singleton store of unversioned variable x");
    ]
    (pairs_of_verify (V.check tab f))

let test_mphi_of_unversioned () =
  let tab, f, x = setup () in
  let b = diamond f in
  call f b.(1) ~mdefs:[ res x 0 ] ~muses:[ res x 0 ];
  Block.add_phi b.(3)
    (Func.mk_instr f
       (Instr.Mphi { dst = res x 0; srcs = [ (1, res x 0); (2, res x 0) ] }));
  check "memory phi"
    [ ("f/b3", "memory phi of unversioned variable x") ]
    (pairs_of_verify (V.check tab f))

(* Verify reports the structural errors first, and prints "where: what"
   lines. *)
let test_verify_includes_validate () =
  let tab, f, _ = setup () in
  let b = blocks f 2 in
  b.(0).Block.term <- Block.Jmp 1;
  b.(1).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  b.(1).Block.dead <- true;
  let r = Func.fresh_reg f in
  ignore (add b.(0) f (Instr.Print { src = Reg r }));
  let errs = V.check tab f in
  Alcotest.(check string) "text"
    (Printf.sprintf
       "f/b0: branch target b1 is dead\nf/b0: register t%d used but never defined"
       r)
    (V.errors_to_string errs)

(* Every class of error in one function, in report order: structure,
   register single assignment, memory (in walk order, version-0 errors
   of a renamed variable interleaved with the others), dominance. *)
let test_report_order () =
  let tab, f, x = setup () in
  let y = Resource.add_var tab ~name:"y" ~kind:Resource.Global ~init:0 in
  let b = diamond f in
  Hashtbl.replace f.Func.mver x 2;
  let r = Func.fresh_reg f and u = Func.fresh_reg f in
  (* b1: r defined twice, x_1 stored twice, x read at version 0 by a call *)
  ignore (add b.(1) f (Instr.Copy { dst = r; src = Imm 1 }));
  ignore (add b.(1) f (Instr.Store { dst = res x 1; src = Imm 1 }));
  call f b.(1) ~mdefs:[] ~muses:[ res x 0; res y 0 ];
  ignore (add b.(1) f (Instr.Store { dst = res x 1; src = Imm 2 }));
  ignore (add b.(1) f (Instr.Copy { dst = r; src = Imm 2 }));
  (* b2: a singleton load of the unversioned y, a use of an undefined
     register *)
  ignore (add b.(2) f (Instr.Load { dst = Func.fresh_reg f; src = res y 0 }));
  ignore (add b.(2) f (Instr.Print { src = Reg u }));
  (* b3: r is used where b1 does not dominate; a register phi missing
     its b2 source; a memory phi of x joining y *)
  ignore (add b.(3) f (Instr.Print { src = Reg r }));
  Block.add_phi b.(3)
    (Func.mk_instr f (Instr.Rphi { dst = Func.fresh_reg f; srcs = [ (1, r) ] }));
  Block.add_phi b.(3)
    (Func.mk_instr f
       (Instr.Mphi { dst = res x 2; srcs = [ (1, res x 1); (2, res y 0) ] }));
  check "report order"
    [
      ("f/b3", "phi sources {1} do not match preds {1,2}");
      ("f", Printf.sprintf "register t%d defined more than once" r);
      ("f", "unversioned resource x");
      ("f", "resource x_1 defined more than once");
      ("f/b2", "singleton load of unversioned variable y");
      ("f/b3", "memory phi of x joins y, a version of another variable");
      ("f/b2", Printf.sprintf "register t%d used but never defined" u);
      ("f/b3", Printf.sprintf "use of t%d not dominated by its definition" r);
    ]
    (pairs_of_verify (V.check tab f))

(* A call or exit use lists the renamed members of the function's
   implicit sets; one it leaves implicit is reported once per
   instruction. *)
let test_renamed_left_implicit () =
  let tab, f, x = setup () in
  let y = Resource.add_var tab ~name:"y" ~kind:Resource.Global ~init:0 in
  f.Func.clobbers <- [| x; y |];
  f.Func.exit_vars <- [| x; y |];
  let b = blocks f 1 in
  b.(0).Block.term <- Block.Ret None;
  Cfg.recompute_preds f;
  call f b.(0) ~mdefs:[ res x 1 ] ~muses:[];
  call f b.(0) ~mdefs:[] ~muses:[];
  ignore (add b.(0) f (Instr.Exit_use { muses = [ res x 1 ] }));
  check "renamed member left implicit"
    [ ("f/b0", "renamed x left implicit"); ("f/b0", "renamed x left implicit") ]
    (pairs_of_verify (V.check tab f))

let suite =
  [
    Alcotest.test_case "validate: entry" `Quick test_entry_dead;
    Alcotest.test_case "validate: dead branch target" `Quick
      test_branch_target_dead;
    Alcotest.test_case "validate: stale preds" `Quick test_stale_preds;
    Alcotest.test_case "validate: phi placement" `Quick test_phi_placement;
    Alcotest.test_case "validate: phi sources" `Quick test_phi_sources;
    Alcotest.test_case "validate: duplicate iid" `Quick test_duplicate_iid;
    Alcotest.test_case "verify: single assignment" `Quick
      test_single_assignment;
    Alcotest.test_case "verify: undefined registers" `Quick
      test_undefined_register;
    Alcotest.test_case "verify: dominance" `Quick test_dominance;
    Alcotest.test_case "verify: cross-variable memory phi" `Quick
      test_cross_variable_phi;
    Alcotest.test_case "verify: structural errors first" `Quick
      test_verify_includes_validate;
    Alcotest.test_case "verify: unversioned variable in calls" `Quick
      test_unversioned_in_calls;
    Alcotest.test_case "verify: version 0 of a renamed variable" `Quick
      test_mixed_versions;
    Alcotest.test_case "verify: singleton access to an unversioned variable"
      `Quick test_singleton_of_unversioned;
    Alcotest.test_case "verify: memory phi of an unversioned variable" `Quick
      test_mphi_of_unversioned;
    Alcotest.test_case "verify: every error class, in report order" `Quick
      test_report_order;
    Alcotest.test_case "validate: errors of one block, by class" `Quick
      test_validate_order;
    Alcotest.test_case "verify: a renamed member left implicit" `Quick
      test_renamed_left_implicit;
  ]
