(* Tests for the incremental SSA updater — including an exact
   reproduction of the paper's Example 2 (Figures 9 and 10), and the
   conversion of a variable SSA construction left unversioned against
   construction from scratch. *)

open Rp_ir
open Rp_ssa

let res v n = { Resource.base = v; ver = n }

(* Build the paper's Example 2 CFG:

     b0 (entry) -> b1
     b1 -> b2, b3         x0 defined in b1
     b2 -> b4, b5         (critical edge b2->b5 deliberately unsplit,
     b3 -> b5              exactly as in the paper's figure)
     b4 -> b6             uses of x0 in b3, b4, b5
     b5 -> b6
     b6 -> b1, b7         back edge: the six blocks form an interval

   Returns (prog, f, use instructions in b3/b4/b5, the x0 store). *)
let build_example2 () =
  let prog = Func.create_prog () in
  let x = Resource.add_var prog.Func.vartab ~name:"x" ~kind:Resource.Global ~init:0 in
  let f = Func.create_func ~name:"ex2" in
  Func.add_func prog f;
  let cond = Func.fresh_reg ~name:"c" f in
  f.Func.params <- [ cond ];
  let b = Array.init 8 (fun _ -> Func.add_block f) in
  f.Func.entry <- b.(0).Block.bid;
  let jmp i j = b.(i).Block.term <- Block.Jmp b.(j).Block.bid in
  let br i j k =
    b.(i).Block.term <-
      Block.Br { cond = Instr.Reg cond; t = b.(j).Block.bid; f = b.(k).Block.bid }
  in
  jmp 0 1;
  br 1 2 3;
  br 2 4 5;
  jmp 3 5;
  jmp 4 6;
  jmp 5 6;
  br 6 1 7;
  b.(7).Block.term <- Block.Ret None;
  (* x0 (version 1 here) defined in b1; loads in b3, b4, b5 *)
  ignore (Hashtbl.replace f.Func.mver x 1);
  let store_x0 = Func.mk_instr f (Instr.Store { dst = res x 1; src = Imm 7 }) in
  Block.insert_at_end b.(1) store_x0;
  let mk_load () =
    Func.mk_instr f (Instr.Load { dst = Func.fresh_reg f; src = res x 1 })
  in
  let u3 = mk_load () and u4 = mk_load () and u5 = mk_load () in
  Block.insert_at_end b.(3) u3;
  Block.insert_at_end b.(4) u4;
  Block.insert_at_end b.(5) u5;
  Cfg.recompute_preds f;
  Verify.assert_ok prog.Func.vartab f;
  (prog, f, x, (u3, u4, u5), store_x0)

let load_res (i : Instr.t) =
  match i.Instr.op with
  | Instr.Load { src; _ } -> src
  | _ -> Alcotest.fail "not a load"

let run_example2 engine =
  let prog, f, x, (u3, u4, u5), store_x0 = build_example2 () in
  (* promotion clones two stores: one in b2, one in b3 (before the
     use), per the paper's scenario *)
  let clone2 = Func.fresh_ver f x in
  let clone3 = Func.fresh_ver f x in
  Block.insert_at_start (Func.block f 2)
    (Func.mk_instr f (Instr.Store { dst = clone2; src = Imm 7 }));
  Block.insert_before (Func.block f 3) ~iid:u3.Instr.iid
    (Func.mk_instr f (Instr.Store { dst = clone3; src = Imm 7 }));
  Helpers.update ~engine f
    ~cloned_res:(Resource.ResSet.of_list [ clone2; clone3 ]);
  Verify.assert_ok prog.Func.vartab f;
  (prog, f, x, (u3, u4, u5), store_x0, clone2, clone3)

let test_example2 engine () =
  let _prog, f, x, (u3, u4, u5), store_x0, clone2, clone3 =
    run_example2 engine
  in
  (* "the use at b3 is renamed x2" (the clone in b3) *)
  Alcotest.(check bool) "b3 use renamed to b3 clone" true
    (Resource.equal (load_res u3) clone3);
  (* "the use at b4 renamed x1" (the clone in b2) *)
  Alcotest.(check bool) "b4 use renamed to b2 clone" true
    (Resource.equal (load_res u4) clone2);
  (* "the use at b5 renamed x3" — the target of a new phi at b5 joining
     the two clones *)
  let b5 = Func.block f 5 in
  (match Iseq.to_list b5.Block.phis with
  | [ { Instr.op = Instr.Mphi { dst; srcs }; _ } ] ->
      Alcotest.(check bool) "b5 use is the phi target" true
        (Resource.equal (load_res u5) dst);
      let srcs = List.sort compare srcs in
      Alcotest.(check bool) "phi sources are the two clones" true
        (srcs = List.sort compare [ (2, clone2); (3, clone3) ])
  | _ -> Alcotest.fail "expected exactly one memory phi at b5");
  (* "the phi instruction at b6 is dead and can be eliminated"; same
     for the phi at b1 (x5), and x0's original definition *)
  Alcotest.(check (list int)) "no phi at b6" []
    (List.map
       (fun (i : Instr.t) -> i.Instr.iid)
       (Iseq.to_list (Func.block f 6).Block.phis));
  Alcotest.(check (list int)) "no phi at b1" []
    (List.map
       (fun (i : Instr.t) -> i.Instr.iid)
       (Iseq.to_list (Func.block f 1).Block.phis));
  Alcotest.(check bool) "dead x0 store deleted" true
    (Block.find_instr (Func.block f 1) ~iid:store_x0.Instr.iid = None);
  ignore x

(* When the original definition still has a use the updater must keep
   it: drop the b3 clone so the b3 use keeps reaching x0. *)
let test_example2_store_stays_live () =
  let prog, f, x, (u3, u4, u5), store_x0 = build_example2 () in
  let clone2 = Func.fresh_ver f x in
  Block.insert_at_start (Func.block f 2)
    (Func.mk_instr f (Instr.Store { dst = clone2; src = Imm 7 }));
  Helpers.update f
    ~cloned_res:(Resource.ResSet.singleton clone2);
  Verify.assert_ok prog.Func.vartab f;
  (* b3's use still reads x0, so the store in b1 must survive *)
  Alcotest.(check bool) "x0 store kept" true
    (Block.find_instr (Func.block f 1) ~iid:store_x0.Instr.iid <> None);
  Alcotest.(check bool) "b3 use unchanged" true
    (Resource.equal (load_res u3) (res x 1));
  Alcotest.(check bool) "b4 use renamed" true
    (Resource.equal (load_res u4) clone2);
  (* b5 joins x0 (via b3) and the clone (via b2) *)
  match Iseq.to_list (Func.block f 5).Block.phis with
  | [ { Instr.op = Instr.Mphi { dst; srcs }; _ } ] ->
      Alcotest.(check bool) "b5 use is phi target" true
        (Resource.equal (load_res u5) dst);
      Alcotest.(check bool) "phi joins clone and x0" true
        (List.sort compare srcs
        = List.sort compare [ (2, clone2); (3, res x 1) ])
  | _ -> Alcotest.fail "expected one memory phi at b5"

(* The per-definition baseline must compute the same final SSA form. *)
let test_per_def_equivalent () =
  let run_with update =
    let _prog, _f, x, (u3, u4, u5), _store, clone2, clone3 =
      let prog, f, x, us, store_x0 = build_example2 () in
      let clone2 = Func.fresh_ver f x in
      let clone3 = Func.fresh_ver f x in
      let u3, _, _ = us in
      Block.insert_at_start (Func.block f 2)
        (Func.mk_instr f (Instr.Store { dst = clone2; src = Imm 7 }));
      Block.insert_before (Func.block f 3) ~iid:u3.Instr.iid
        (Func.mk_instr f (Instr.Store { dst = clone3; src = Imm 7 }));
      update f (Resource.ResSet.of_list [ clone2; clone3 ]);
      Verify.assert_ok prog.Func.vartab f;
      (prog, f, x, us, store_x0, clone2, clone3)
    in
    ignore clone3;
    ignore clone2;
    ignore x;
    (* summarise: the resources each use ends at *)
    (load_res u3, load_res u4, (load_res u5).Resource.base)
  in
  let batch =
    run_with (fun f cloned -> Helpers.update f ~cloned_res:cloned)
  in
  let per_def =
    run_with (fun f cloned -> Per_def_update.update_one_at_a_time f ~cloned_res:cloned)
  in
  Alcotest.(check bool) "same renaming" true (batch = per_def)

(* Using the updater as a general tool: clone a definition into a
   straight-line successor and check the simple renaming. *)
let test_straightline_clone () =
  let prog = Func.create_prog () in
  let x = Resource.add_var prog.Func.vartab ~name:"x" ~kind:Resource.Global ~init:0 in
  let f = Func.create_func ~name:"s" in
  Func.add_func prog f;
  let b0 = Func.add_block f and b1 = Func.add_block f in
  f.Func.entry <- b0.Block.bid;
  b0.Block.term <- Block.Jmp b1.Block.bid;
  b1.Block.term <- Block.Ret None;
  Hashtbl.replace f.Func.mver x 1;
  Block.insert_at_end b0 (Func.mk_instr f (Instr.Store { dst = res x 1; src = Imm 1 }));
  let u = Func.mk_instr f (Instr.Load { dst = Func.fresh_reg f; src = res x 1 }) in
  Block.insert_at_end b1 u;
  Cfg.recompute_preds f;
  let clone = Func.fresh_ver f x in
  Block.insert_at_start b1 (Func.mk_instr f (Instr.Store { dst = clone; src = Imm 2 }));
  Helpers.update f ~cloned_res:(Resource.ResSet.singleton clone);
  Verify.assert_ok prog.Func.vartab f;
  Alcotest.(check bool) "use renamed to clone" true
    (Resource.equal (load_res u) clone);
  (* original store is dead now *)
  Alcotest.(check int) "b0 store removed" 0 (Iseq.length b0.Block.body)

let test_empty_cloned_set () =
  let prog, f, _, _, _ = build_example2 () in
  Helpers.update f ~cloned_res:Resource.ResSet.empty;
  Verify.assert_ok prog.Func.vartab f

(* The post-condition promotion's dead-store step relies on: after an
   update, no unprotected singleton store or memory phi of the variable
   is left without a use — step 4 deleted every such definition. *)
let unused_defs (f : Func.t) ~(base : Ids.vid) ~(protect : Resource.ResSet.t) =
  let used = Hashtbl.create 64 in
  Func.iter_instrs
    (fun _ (i : Instr.t) ->
      List.iter (fun r -> Hashtbl.replace used r ()) (Instr.mem_uses i.op);
      List.iter (fun (_, r) -> Hashtbl.replace used r ()) (Instr.mphi_srcs i.op))
    f;
  Func.fold_blocks
    (fun acc b ->
      List.fold_left
        (fun acc (i : Instr.t) ->
          match i.op with
          | Instr.Store { dst; _ } | Instr.Mphi { dst; _ }
            when dst.Resource.base = base
                 && (not (Resource.ResSet.mem dst protect))
                 && not (Hashtbl.mem used dst) ->
              dst :: acc
          | _ -> acc)
        acc (Block.instrs b))
    [] f

let check_no_unused where f ~base ~protect =
  match unused_defs f ~base ~protect with
  | [] -> ()
  | rs ->
      Alcotest.failf "%s: unused definitions left: %s" where
        (String.concat ", " (List.map (Format.asprintf "%a" Resource.pp_raw) rs))

let test_postcondition_example2 engine () =
  let _prog, f, x, _, _, _, _ = run_example2 engine in
  check_no_unused "example 2" f ~base:x ~protect:Resource.ResSet.empty

(* [scenario tab f base] for every promotable variable with a store or
   phi in every function of the named workloads and gen60; returns how
   many ran. *)
let for_workload_vars scenario =
  let sources =
    List.map
      (fun (w : Rp_workloads.Registry.workload) -> w.Rp_workloads.Registry.source)
      Rp_workloads.Registry.all
    @ [ (Rp_workloads.Registry.generated 60).Rp_workloads.Registry.source ]
  in
  let runs = ref 0 in
  List.iter
    (fun src ->
      let prog, _ = Rp_core.Pipeline.prepare src in
      let tab = prog.Func.vartab in
      List.iter
        (fun (f : Func.t) ->
          let bases =
            Func.fold_blocks
              (fun acc b ->
                List.fold_left
                  (fun acc (i : Instr.t) ->
                    match i.op with
                    | Instr.Store { dst; _ } | Instr.Mphi { dst; _ }
                      when Resource.promotable tab dst.Resource.base ->
                        dst.Resource.base :: acc
                    | _ -> acc)
                  acc (Block.instrs b))
              [] f
          in
          List.iter
            (fun base ->
              scenario tab f base;
              incr runs)
            (List.sort_uniq compare bases))
        prog.Func.funcs)
    sources;
  !runs

let where tab (f : Func.t) base =
  Printf.sprintf "%s/%s" f.Func.fname (Resource.var_name tab base)

(* Clone each store of the variable right after the original, update,
   and check the post-condition.  With the originals protected they
   must survive, unused as they now are. *)
let test_postcondition_clone_stores engine ~protect_originals () =
  let runs =
    for_workload_vars (fun tab f base ->
        let originals =
          Func.fold_blocks
            (fun acc b ->
              List.fold_left
                (fun acc (i : Instr.t) ->
                  match i.op with
                  | Instr.Store { dst; src } when dst.Resource.base = base ->
                      (b, i, dst, src) :: acc
                  | _ -> acc)
                acc (Block.instrs b))
            [] f
        in
        let cloned =
          List.fold_left
            (fun acc ((b : Block.t), (i : Instr.t), _, src) ->
              let c = Func.fresh_ver f base in
              Block.insert_after b ~iid:i.Instr.iid
                (Func.mk_instr f (Instr.Store { dst = c; src }));
              Resource.ResSet.add c acc)
            Resource.ResSet.empty originals
        in
        let protect =
          if protect_originals then
            Resource.ResSet.of_list (List.map (fun (_, _, dst, _) -> dst) originals)
          else Resource.ResSet.empty
        in
        Helpers.update ~engine ~protect f ~cloned_res:cloned;
        check_no_unused (where tab f base) f ~base ~protect;
        List.iter
          (fun ((b : Block.t), (i : Instr.t), _, _) ->
            let kept = Block.find_instr b ~iid:i.Instr.iid <> None in
            if protect_originals && not kept then
              Alcotest.failf "%s: protected store deleted" (where tab f base))
          originals;
        Verify.assert_ok tab f)
  in
  Alcotest.(check bool) "updates run" true (runs > 50)

(* Store a clone at the head of every block holding a phi of the
   variable: the clone shadows the phi wherever it was used, so the phi
   dies, and with it every definition only the phi used — step 4 must
   cascade. *)
let test_postcondition_cascade engine () =
  let runs =
    for_workload_vars (fun tab f base ->
        let cloned =
          Func.fold_blocks
            (fun acc b ->
              let has_phi =
                Iseq.exists
                  (fun (i : Instr.t) ->
                    match i.op with
                    | Instr.Mphi { dst; _ } -> dst.Resource.base = base
                    | _ -> false)
                  b.Block.phis
              in
              if has_phi then begin
                let c = Func.fresh_ver f base in
                Block.insert_at_start b
                  (Func.mk_instr f (Instr.Store { dst = c; src = Instr.Imm 0 }));
                Resource.ResSet.add c acc
              end
              else acc)
            Resource.ResSet.empty f
        in
        Helpers.update ~engine f ~cloned_res:cloned;
        check_no_unused (where tab f base) f ~base ~protect:Resource.ResSet.empty;
        Verify.assert_ok tab f)
  in
  Alcotest.(check bool) "updates run" true (runs > 50)

(* ------------------------------------------------------------------ *)
(* Bringing an unversioned variable into SSA *)

(* SSA construction renames only the variables a function loads or
   stores singly.  A pass that gives one of the others its first
   singleton access calls [Incremental.convert_new_variable]; the result
   must be, up to renaming, what construction gives the function with
   that access in it.  Phi sources are sorted by predecessor first:
   construction lists them in dominator-walk order, the updater in
   predecessor order, and the order of a phi's sources means nothing. *)

let sort_phi_srcs (f : Func.t) =
  Func.iter_blocks
    (fun b ->
      Iseq.iter
        (fun (i : Instr.t) ->
          match i.op with
          | Instr.Rphi { dst; srcs } ->
              i.op <- Instr.Rphi { dst; srcs = List.sort compare srcs }
          | Instr.Mphi { dst; srcs } ->
              i.op <- Instr.Mphi { dst; srcs = List.sort compare srcs }
          | _ -> ())
        b.Block.phis)
    f

let alpha tab f =
  sort_phi_srcs f;
  Rp_alpha.Alpha.func_text tab f

(* The promotable variables [f] (in SSA form) leaves unversioned, each
   with the instructions that use it, in scan order; a call or exit use
   that holds one implicitly uses it. *)
let unversioned_uses tab (f : Func.t) =
  let renamed = Hashtbl.create 16 and uses = Hashtbl.create 16 in
  Func.iter_blocks
    (fun b ->
      Block.iter_instrs
        (fun (i : Instr.t) ->
          Instr.iter_mem
            (fun (r : Resource.t) ->
              if r.ver > 0 then Hashtbl.replace renamed r.base ())
            i.op;
          List.iter
            (fun (r : Resource.t) ->
              if Resource.promotable tab r.base then
                Hashtbl.replace uses r.base
                  ((b, i) :: Option.value ~default:[] (Hashtbl.find_opt uses r.base)))
            (List.sort_uniq Resource.compare
               (Instr.mem_uses (Func.expand ~keep:(fun _ -> true) f i.op))))
        b)
    f;
  Hashtbl.fold
    (fun v us acc ->
      if Hashtbl.mem renamed v then acc else (v, List.rev us) :: acc)
    uses []
  |> List.sort compare

(* [pre] is a function before SSA construction.  For each promotable
   variable construction leaves unversioned, [pick] chooses one of its
   uses; a store of the variable goes right before it (so the store is
   live), on an SSA copy followed by the conversion and on a pre-SSA
   copy followed by construction.  Both must verify and agree up to
   renaming.  Returns the number of conversions. *)
let check_conversions ~ctx ~pick tab (pre : Func.t) =
  let ssa = Func.clone pre in
  Construct.run ssa;
  List.fold_left
    (fun n (v, uses) ->
      let (b : Block.t), (use : Instr.t) = pick v uses in
      let insert (f : Func.t) =
        Block.insert_before (Func.block f b.Block.bid) ~iid:use.Instr.iid
          (Func.mk_instr f
             (Instr.Store { dst = Resource.unversioned v; src = Instr.Imm 7 }))
      in
      let converted = Func.clone ssa in
      insert converted;
      let mentions (blk : Block.t) =
        let found = ref false in
        Block.iter_instrs
          (fun (i : Instr.t) ->
            Instr.iter_mem
              (fun (r : Resource.t) -> if r.base = v then found := true)
              i.op)
          blk;
        !found
      in
      let untouched =
        Func.fold_blocks
          (fun acc blk ->
            if mentions blk then acc else (blk, Block.stamp blk) :: acc)
          [] converted
      in
      Incremental.convert_new_variable converted v;
      let built = Func.clone pre in
      insert built;
      Construct.run built;
      let where = Printf.sprintf "%s/%s/%s" ctx pre.Func.fname (Resource.var_name tab v) in
      (match Verify.check tab converted with
      | [] -> ()
      | errs -> Alcotest.failf "%s: converted: %s" where (Verify.errors_to_string errs));
      (* a block that mentions the variable neither before nor after
         the conversion was not edited *)
      List.iter
        (fun ((blk : Block.t), stamp) ->
          if (not (mentions blk)) && Block.stamp blk <> stamp then
            Alcotest.failf "%s: b%d without the variable was edited" where
              blk.Block.bid)
        untouched;
      if alpha tab converted <> alpha tab built then
        Alcotest.failf "%s: conversion differs from construction" where;
      n + 1)
    0 (unversioned_uses tab ssa)

(* The program's functions as SSA construction first sees them:
   lowered and normalised. *)
let pre_ssa src =
  let prog, _ =
    Rp_core.Pipeline.frontend ~options:Rp_core.Pipeline.default_options src
  in
  List.iter (fun f -> ignore (Rp_analysis.Intervals.normalise f)) prog.Func.funcs;
  prog

let test_convert_workloads () =
  let sources =
    List.map
      (fun (w : Rp_workloads.Registry.workload) ->
        (w.Rp_workloads.Registry.name, w.Rp_workloads.Registry.source))
      Rp_workloads.Registry.all
    @ List.map
        (fun n ->
          ( Printf.sprintf "gen%d" n,
            (Rp_workloads.Registry.generated n).Rp_workloads.Registry.source ))
        [ 60; 240 ]
  in
  let runs =
    List.fold_left
      (fun n (name, src) ->
        let prog = pre_ssa src in
        List.fold_left
          (fun n f ->
            (* a different use for each variable: the k-th use of the
               k-th variable, wrapping *)
            let k = ref (-1) in
            let pick _ uses =
              incr k;
              List.nth uses (!k mod List.length uses)
            in
            n + check_conversions ~ctx:name ~pick prog.Func.vartab f)
          n prog.Func.funcs)
      0 sources
  in
  Alcotest.(check bool) (Printf.sprintf "%d conversions" runs) true (runs > 500)

let prop_convert_random =
  QCheck.Test.make ~name:"conversion = construction (random programs)"
    ~count:100
    QCheck.(pair Suite_qcheck.arb_program small_nat)
    (fun (src, seed) ->
      let prog = pre_ssa src in
      let pick v uses = List.nth uses ((seed + v) mod List.length uses) in
      List.iter
        (fun f -> ignore (check_conversions ~ctx:"random" ~pick prog.Func.vartab f))
        prog.Func.funcs;
      true)

(* ------------------------------------------------------------------ *)
(* Candidate phis that become live *)

(* Step 1 reserves a version for a candidate phi in every IDF block;
   step 3 builds the ones renaming reaches.  For each renamed variable
   of each function with a load, a clone of a store goes right before
   one of its loads (so the clone is live), on the SSA form with an
   index kept current as promotion keeps it.  After the update:
   - each built phi is the first of its block's phis, and the index
     lists it;
   - a block whose instructions are unchanged kept its stamp: a
     candidate that died left no trace;
   - the function equals, up to renaming, a fresh construction of the
     function with that store in it.  The variable's stores are
     protected, because construction keeps a store whose value is no
     longer read.
   Returns (updates, candidates built, candidates that died). *)
let check_live_candidates engine ~ctx tab (pre : Func.t) =
  let ssa0 = Func.clone pre in
  Construct.run ssa0;
  let loads = Hashtbl.create 16 in
  Func.iter_instrs
    (fun b (i : Instr.t) ->
      match i.op with
      | Instr.Load { src; _ } when src.Resource.ver > 0 ->
          Hashtbl.replace loads src.base
            ((b.Block.bid, i.iid)
            :: Option.value ~default:[] (Hashtbl.find_opt loads src.base))
      | _ -> ())
    ssa0;
  let vars =
    List.sort compare (Hashtbl.fold (fun v us acc -> (v, List.rev us) :: acc) loads [])
  in
  List.fold_left
    (fun (n, built_total, died_total) (v, uses) ->
      let bid, use = List.nth uses (v mod List.length uses) in
      let where =
        Printf.sprintf "%s/%s/%s" ctx pre.Func.fname (Resource.var_name tab v)
      in
      let f = Func.clone ssa0 in
      let index = Occ_index.build f in
      let clone = Func.fresh_ver f v in
      let store =
        Func.mk_instr f (Instr.Store { dst = clone; src = Instr.Imm 7 })
      in
      Block.insert_before (Func.block f bid) ~iid:use store;
      Occ_index.note index bid store;
      let protect =
        Func.fold_blocks
          (fun acc b ->
            Iseq.fold_left
              (fun acc (i : Instr.t) ->
                match i.op with
                | Instr.Store { dst; _ } when dst.Resource.base = v ->
                    Resource.ResSet.add dst acc
                | _ -> acc)
              acc b.Block.body)
          Resource.ResSet.empty f
      in
      let contents (b : Block.t) =
        let l s = List.map (fun (i : Instr.t) -> (i.iid, i.op)) (Iseq.to_list s) in
        (l b.Block.phis, l b.Block.body)
      in
      let before =
        Func.fold_blocks (fun acc b -> (b, Block.stamp b, contents b) :: acc) [] f
      in
      let top0 = clone.Resource.ver in
      Incremental.update_for_cloned_resources ~engine ~protect ~index f
        ~cloned_res:(Resource.ResSet.singleton clone);
      (match Verify.check tab f with
      | [] -> ()
      | errs -> Alcotest.failf "%s: %s" where (Verify.errors_to_string errs));
      (* the phis built for candidates: versions past the clone's *)
      let is_built (i : Instr.t) =
        match i.op with
        | Instr.Mphi { dst; _ } -> dst.Resource.base = v && dst.ver > top0
        | _ -> false
      in
      let built =
        Func.fold_blocks
          (fun acc b ->
            Iseq.fold_left
              (fun acc (i : Instr.t) ->
                if is_built i then begin
                  (match Iseq.to_list b.Block.phis with
                  | first :: _ when first.Instr.iid = i.iid -> ()
                  | _ ->
                      Alcotest.failf "%s: the phi built in b%d is not its \
                                      block's first" where b.Block.bid);
                  i.iid :: acc
                end
                else acc)
              acc b.Block.phis)
          [] f
      in
      let indexed = ref [] in
      Occ_index.iter index v (fun _ i ~defs:_ ~uses:_ ->
          if is_built i then indexed := i.iid :: !indexed);
      if List.sort compare built <> List.sort compare !indexed then
        Alcotest.failf "%s: the index lists %d built phis of %d" where
          (List.length !indexed) (List.length built);
      List.iter
        (fun ((b : Block.t), stamp, c) ->
          if contents b = c && Block.stamp b <> stamp then
            Alcotest.failf "%s: unchanged b%d changed its stamp" where
              b.Block.bid)
        before;
      let rebuilt = Func.clone pre in
      Block.insert_before (Func.block rebuilt bid) ~iid:use
        (Func.mk_instr rebuilt
           (Instr.Store { dst = Resource.unversioned v; src = Instr.Imm 7 }));
      Construct.run ~engine:Construct.Cytron rebuilt;
      if alpha tab f <> alpha tab rebuilt then
        Alcotest.failf "%s: the update differs from construction" where;
      let reserved = Hashtbl.find f.Func.mver v - top0 in
      let nbuilt = List.length built in
      (n + 1, built_total + nbuilt, died_total + reserved - nbuilt))
    (0, 0, 0) vars

let test_live_candidates engine () =
  let updates, built, died =
    List.fold_left
      (fun acc (name, _, src) ->
        let prog = pre_ssa src in
        List.fold_left
          (fun (n, b, d) f ->
            let n', b', d' =
              check_live_candidates engine ~ctx:name prog.Func.vartab f
            in
            (n + n', b + b', d + d'))
          acc prog.Func.funcs)
      (0, 0, 0)
      (List.filter
         (fun (name, _, _) -> not (String.ends_with ~suffix:"--scalrep" name))
         Helpers.equivalence_programs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d updates, %d candidates built, %d died" updates built
       died)
    true
    (updates > 500 && built > 0 && died > 0)

(* A global that [main] never loads or stores is held only implicitly,
   by the call's clobber set and the exit use's set.  Converting it must
   find both, list it there, verify, and equal construction up to
   renaming (which [check_conversions] checks). *)
let test_convert_implicit_only () =
  let prog =
    pre_ssa
      {|
int g;
int h;
void touch() { g = g + 1; }
int main() {
  int i;
  for (i = 0; i < 3; i++) { touch(); h = h + i; }
  return 0;
}
|}
  in
  let tab = prog.Func.vartab in
  let main = Option.get (Func.find_func prog "main") in
  let g = ref (-1) in
  Resource.iter_vars
    (fun v -> if v.Resource.vname = "g" then g := v.Resource.vid)
    tab;
  let ssa = Func.clone main in
  Construct.run ssa;
  let mentions op =
    let n = ref 0 in
    Instr.iter_mem (fun (r : Resource.t) -> if r.base = !g then incr n) op;
    !n
  in
  let listed = ref 0 and implicit = ref 0 in
  Func.iter_instrs
    (fun _ (i : Instr.t) ->
      listed := !listed + mentions i.op;
      implicit :=
        !implicit + mentions (Func.expand ~keep:(fun _ -> true) ssa i.op))
    ssa;
  Alcotest.(check (pair int int)) "g: listed, and held by the call and the exit"
    (0, 3) (!listed, !implicit);
  let pick v uses =
    Alcotest.(check int) "the converted variable" !g v;
    List.hd uses
  in
  Alcotest.(check int) "conversions" 1 (check_conversions ~ctx:"implicit" ~pick tab main)

let suite =
  [
    Alcotest.test_case "paper example 2 (Cytron IDF)" `Quick
      (test_example2 Incremental.Cytron);
    Alcotest.test_case "paper example 2 (Sreedhar-Gao IDF)" `Quick
      (test_example2 Incremental.Sreedhar_gao);
    Alcotest.test_case "live original definition kept" `Quick
      test_example2_store_stays_live;
    Alcotest.test_case "per-def baseline equivalent" `Quick test_per_def_equivalent;
    Alcotest.test_case "straight-line clone" `Quick test_straightline_clone;
    Alcotest.test_case "empty cloned set" `Quick test_empty_cloned_set;
    Alcotest.test_case "no unused defs after update (example 2, Cytron)" `Quick
      (test_postcondition_example2 Incremental.Cytron);
    Alcotest.test_case "no unused defs after update (example 2, Sreedhar-Gao)" `Quick
      (test_postcondition_example2 Incremental.Sreedhar_gao);
    Alcotest.test_case "no unused defs after update (workloads, Cytron)" `Quick
      (test_postcondition_clone_stores Incremental.Cytron ~protect_originals:false);
    Alcotest.test_case "no unused defs after update (workloads, Sreedhar-Gao)"
      `Quick
      (test_postcondition_clone_stores Incremental.Sreedhar_gao
         ~protect_originals:false);
    Alcotest.test_case "protected defs survive update (workloads)" `Quick
      (test_postcondition_clone_stores Incremental.Cytron ~protect_originals:true);
    Alcotest.test_case "dead phis cascade (workloads, Cytron)" `Quick
      (test_postcondition_cascade Incremental.Cytron);
    Alcotest.test_case "dead phis cascade (workloads, Sreedhar-Gao)" `Quick
      (test_postcondition_cascade Incremental.Sreedhar_gao);
    Alcotest.test_case "conversion = construction (workloads)" `Quick
      test_convert_workloads;
    Suite_qcheck.qtest prop_convert_random;
    Alcotest.test_case "live candidate phis (workloads, Cytron)" `Quick
      (test_live_candidates Incremental.Cytron);
    Alcotest.test_case "live candidate phis (workloads, Sreedhar-Gao)" `Quick
      (test_live_candidates Incremental.Sreedhar_gao);
    Alcotest.test_case "conversion of a variable held only implicitly" `Quick
      test_convert_implicit_only;
  ]
