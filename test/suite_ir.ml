(* Unit tests for the IR: instruction def/use accessors, block surgery,
   CFG maintenance, edge splitting and structural validation. *)

open Rp_ir

let res v n = { Resource.base = v; ver = n }

let mk_instr =
  let next = ref 1000 in
  fun op ->
    incr next;
    { Instr.iid = !next; op }

(* ------------------------------------------------------------------ *)
(* Instr accessors *)

let test_reg_defs_uses () =
  let i = Instr.Bin { dst = 3; op = Instr.Add; l = Reg 1; r = Imm 5 } in
  Alcotest.(check (option int)) "bin def" (Some 3) (Instr.reg_def i);
  Alcotest.(check (list int)) "bin uses" [ 1 ] (Instr.reg_uses i);
  let st = Instr.Store { dst = res 0 1; src = Reg 7 } in
  Alcotest.(check (option int)) "store no def" None (Instr.reg_def st);
  Alcotest.(check (list int)) "store uses" [ 7 ] (Instr.reg_uses st);
  let call =
    Instr.Call
      {
        dst = Some 9;
        callee = Instr.User "f";
        args = [ Reg 1; Imm 2; Reg 3 ];
        mdefs = [ res 0 2 ];
        muses = [ res 0 1 ];
      }
  in
  Alcotest.(check (option int)) "call def" (Some 9) (Instr.reg_def call);
  Alcotest.(check (list int)) "call uses" [ 1; 3 ] (Instr.reg_uses call)

let test_mem_defs_uses () =
  let ld = Instr.Load { dst = 1; src = res 0 3 } in
  Alcotest.(check int) "load muse count" 1 (List.length (Instr.mem_uses ld));
  Alcotest.(check int) "load no mdef" 0 (List.length (Instr.mem_defs ld));
  let st = Instr.Store { dst = res 0 4; src = Imm 0 } in
  Alcotest.(check bool) "store mem_def" true (Instr.mem_def st = Some (res 0 4));
  let ps =
    Instr.Ptr_store
      { addr = Reg 1; src = Imm 2; mdefs = [ res 0 5; res 1 1 ]; muses = [ res 0 4 ] }
  in
  Alcotest.(check int) "ptr_store mdefs" 2 (List.length (Instr.mem_defs ps));
  Alcotest.(check bool) "ptr_store is aliased store" true (Instr.is_aliased_store ps);
  Alcotest.(check bool) "ptr_store not aliased load" false (Instr.is_aliased_load ps);
  let pl = Instr.Ptr_load { dst = 2; addr = Reg 1; muses = [ res 0 5 ] } in
  Alcotest.(check bool) "ptr_load is aliased load" true (Instr.is_aliased_load pl);
  let eu = Instr.Exit_use { muses = [ res 0 5 ] } in
  Alcotest.(check bool) "exit_use is aliased load" true (Instr.is_aliased_load eu);
  Alcotest.(check bool) "exit_use not aliased store" false (Instr.is_aliased_store eu)

let test_rewrites () =
  let i = Instr.Bin { dst = 3; op = Instr.Add; l = Reg 1; r = Reg 2 } in
  let i' = Instr.map_reg_uses (fun r -> r + 10) i in
  Alcotest.(check (list int)) "rewritten uses" [ 11; 12 ] (Instr.reg_uses i');
  Alcotest.(check (option int)) "def untouched" (Some 3) (Instr.reg_def i');
  let i'' = Instr.map_reg_def (fun _ -> 99) i' in
  Alcotest.(check (option int)) "rewritten def" (Some 99) (Instr.reg_def i'');
  let ld = Instr.Load { dst = 1; src = res 0 1 } in
  let ld' = Instr.map_mem_uses (fun _ -> res 0 7) ld in
  Alcotest.(check bool) "mem use rewritten" true (Instr.mem_uses ld' = [ res 0 7 ])

let test_phi_accessors () =
  let p = mk_instr (Instr.Rphi { dst = 5; srcs = [ (0, 1); (1, 2) ] }) in
  Alcotest.(check bool) "is_phi" true (Instr.is_phi p);
  Alcotest.(check bool) "is_rphi" true (Instr.is_rphi p);
  Alcotest.(check bool) "not mphi" false (Instr.is_mphi p);
  Instr.set_rphi_srcs p [ (0, 9) ];
  Alcotest.(check int) "srcs replaced" 1 (List.length (Instr.rphi_srcs p.Instr.op));
  let m = mk_instr (Instr.Mphi { dst = res 0 2; srcs = [] }) in
  Alcotest.check_raises "set_rphi_srcs on mphi"
    (Invalid_argument "Instr.set_rphi_srcs: not a register phi") (fun () ->
      Instr.set_rphi_srcs m [])

(* ------------------------------------------------------------------ *)
(* Block surgery *)

let test_block_surgery () =
  let f = Func.create_func ~name:"t" in
  let b = Func.add_block f in
  let i1 = Func.mk_instr f (Instr.Copy { dst = 0; src = Imm 1 }) in
  let i2 = Func.mk_instr f (Instr.Copy { dst = 1; src = Imm 2 }) in
  Block.insert_at_end b i1;
  Block.insert_at_end b i2;
  let i3 = Func.mk_instr f (Instr.Copy { dst = 2; src = Imm 3 }) in
  Block.insert_before b ~iid:i2.Instr.iid i3;
  let order = List.map (fun (i : Instr.t) -> i.iid) (Iseq.to_list b.Block.body) in
  Alcotest.(check (list int)) "insert_before order"
    [ i1.Instr.iid; i3.Instr.iid; i2.Instr.iid ]
    order;
  let i4 = Func.mk_instr f (Instr.Copy { dst = 3; src = Imm 4 }) in
  Block.insert_after b ~iid:i1.Instr.iid i4;
  let order = List.map (fun (i : Instr.t) -> i.iid) (Iseq.to_list b.Block.body) in
  Alcotest.(check (list int)) "insert_after order"
    [ i1.Instr.iid; i4.Instr.iid; i3.Instr.iid; i2.Instr.iid ]
    order;
  Block.remove_instr b ~iid:i3.Instr.iid;
  Alcotest.(check int) "removed" 3 (Iseq.length b.Block.body);
  Alcotest.(check bool) "find present" true (Block.find_instr b ~iid:i4.Instr.iid <> None);
  Alcotest.(check bool) "find absent" true (Block.find_instr b ~iid:i3.Instr.iid = None);
  let i5 = Func.mk_instr f (Instr.Copy { dst = 4; src = Imm 5 }) in
  Block.insert_at_start b i5;
  Alcotest.(check int) "insert_at_start position" i5.Instr.iid
    (Option.get (Iseq.first b.Block.body)).Instr.iid;
  Alcotest.check_raises "insert before missing" Not_found (fun () ->
      Block.insert_before b ~iid:99999 i5)

let test_retarget_succs () =
  let f = Helpers.func_of_edges ~n:3 [ (0, 1); (0, 2) ] in
  let b0 = Func.block f 0 in
  Alcotest.(check (list int)) "succs" [ 1; 2 ] (Block.succs b0);
  Block.retarget b0 ~old_t:2 ~new_t:1;
  Alcotest.(check (list int)) "after retarget both to 1" [ 1 ] (Block.succs b0)

(* ------------------------------------------------------------------ *)
(* Cfg *)

let test_preds_rpo () =
  (* diamond with a loop back edge: 0 -> 1 -> {2,3}; 2,3 -> 4; 4 -> 1 *)
  let f =
    Helpers.func_of_edges ~n:5
      [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4); (4, 1) ]
  in
  Alcotest.(check (list int)) "preds of 1" [ 0; 4 ]
    (List.sort compare (Func.block f 1).Block.preds);
  let rpo = Cfg.rpo f in
  Alcotest.(check int) "rpo covers all" 5 (List.length rpo);
  Alcotest.(check int) "rpo starts at entry" 0 (List.hd rpo);
  (* RPO property: for the acyclic edges, source before target *)
  let idx b = Option.get (List.find_index (fun x -> x = b) rpo) in
  Alcotest.(check bool) "0 before 1" true (idx 0 < idx 1);
  Alcotest.(check bool) "1 before 4" true (idx 1 < idx 4)

let test_split_edge () =
  let f = Helpers.func_of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Func.set_edge_freq f ~src:0 ~dst:1 7.0;
  let m = Cfg.split_edge f ~src:0 ~dst:1 in
  Alcotest.(check (list int)) "new block preds" [ 0 ] m.Block.preds;
  Alcotest.(check (list int)) "new block succs" [ 1 ] (Block.succs m);
  Alcotest.(check bool) "0 no longer pred of 1" true
    (not (List.mem 0 (Func.block f 1).Block.preds));
  Alcotest.(check (float 0.001)) "edge freq moved" 7.0
    (Func.block_freq f m.Block.bid)

let test_critical_edges () =
  (* 0 -> {1,2}, 1 -> 3, 2 -> 3, 0 -> 3 would be critical *)
  let f = Helpers.func_of_edges ~n:3 [ (0, 1); (0, 2); (1, 2) ] in
  (* edge 1->2: src 1 has one succ; ok.  edge 0->2: 0 has two succs and
     2 has two preds: critical *)
  Alcotest.(check bool) "0->2 critical" true (Cfg.is_critical f ~src:0 ~dst:2);
  Alcotest.(check bool) "0->1 not critical" false (Cfg.is_critical f ~src:0 ~dst:1);
  Cfg.split_critical_edges f;
  List.iter
    (fun (s, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %d->%d not critical" s d)
        false (Cfg.is_critical f ~src:s ~dst:d))
    (Cfg.edges f)

let test_remove_unreachable () =
  let f = Helpers.func_of_edges ~n:4 [ (0, 1) ] in
  (* blocks 2 and 3 unreachable *)
  Cfg.remove_unreachable f;
  Alcotest.(check bool) "2 dead" true (Func.block f 2).Block.dead;
  Alcotest.(check bool) "3 dead" true (Func.block f 3).Block.dead;
  Alcotest.(check bool) "1 alive" false (Func.block f 1).Block.dead

let test_recompute_preds_order () =
  (* preds come back in predecessor-block order, whatever state the
     lists were left in *)
  let f = Helpers.func_of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  (Func.block f 3).Block.preds <- [ 2; 1 ];
  (Func.block f 1).Block.preds <- [ 9; 9; 9 ];
  Cfg.recompute_preds f;
  Alcotest.(check (list int)) "join preds in block order" [ 1; 2 ]
    (Func.block f 3).Block.preds;
  Alcotest.(check (list int)) "mangled preds rebuilt" [ 0 ]
    (Func.block f 1).Block.preds;
  (* a conditional branch with both arms on one target contributes a
     single pred *)
  let g = Helpers.func_of_edges ~n:2 [ (0, 1) ] in
  let cond = List.hd g.Func.params in
  (Func.block g 0).Block.term <-
    Block.Br { cond = Instr.Reg cond; t = 1; f = 1 };
  Cfg.recompute_preds g;
  Alcotest.(check (list int)) "same-target branch dedups" [ 0 ]
    (Func.block g 1).Block.preds

let test_dead_preds_cleared () =
  (* an unreachable cycle: 2 and 3 point at each other, so without the
     eager clear their pred lists would keep naming dead blocks *)
  let f = Helpers.func_of_edges ~n:4 [ (0, 1); (2, 3); (3, 2) ] in
  Cfg.remove_unreachable f;
  Alcotest.(check (list int)) "dead 2 preds cleared" []
    (Func.block f 2).Block.preds;
  Alcotest.(check (list int)) "dead 3 preds cleared" []
    (Func.block f 3).Block.preds;
  Alcotest.(check (list int)) "live preds intact" [ 0 ]
    (Func.block f 1).Block.preds;
  (* and recompute keeps dead blocks out on both sides *)
  Cfg.recompute_preds f;
  Alcotest.(check (list int)) "recompute keeps dead preds empty" []
    (Func.block f 2).Block.preds

(* ------------------------------------------------------------------ *)
(* Validate *)

let test_validate_ok () =
  let f = Helpers.func_of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let tab = Resource.create_table () in
  Alcotest.(check int) "no errors" 0 (List.length (Validate.check_func tab f))

let test_validate_stale_preds () =
  let f = Helpers.func_of_edges ~n:2 [ (0, 1) ] in
  (Func.block f 1).Block.preds <- [];
  let tab = Resource.create_table () in
  Alcotest.(check bool) "stale preds detected" true
    (Validate.check_func tab f <> [])

let test_validate_phi_in_body () =
  let f = Helpers.func_of_edges ~n:2 [ (0, 1) ] in
  let b = Func.block f 1 in
  Block.insert_at_end b (Func.mk_instr f (Instr.Rphi { dst = 0; srcs = [ (0, 1) ] }));
  let tab = Resource.create_table () in
  Alcotest.(check bool) "phi in body detected" true
    (Validate.check_func tab f <> [])

let test_validate_phi_sources_mismatch () =
  let f = Helpers.func_of_edges ~n:3 [ (0, 2); (1, 2) ] in
  (* block 1 is unreachable but still a pred of 2 structurally *)
  let b = Func.block f 2 in
  Block.add_phi b (Func.mk_instr f (Instr.Rphi { dst = 5; srcs = [ (0, 1) ] }));
  let tab = Resource.create_table () in
  Alcotest.(check bool) "phi arity mismatch detected" true
    (Validate.check_func tab f <> [])

(* Id tables answer every key: inside the initial range, past it and
   below zero, for the int tables and the any-valued ones alike. *)
let test_id_tables () =
  let t = Id_table.create 4 ~default:(-1) in
  List.iter (fun (k, v) -> Id_table.set t k v) [ (0, 10); (3, 13); (9, 19); (-2, 8) ];
  Alcotest.(check (list int)) "int table" [ 10; -1; 13; 19; 8; -1 ]
    (List.map (Id_table.get t) [ 0; 1; 3; 9; -2; 100 ]);
  let p = Id_table.Poly.create 2 ~default:[] in
  List.iter
    (fun (k, v) -> Id_table.Poly.set p k (v :: Id_table.Poly.get p k))
    [ (1, "a"); (1, "b"); (70, "c"); (-3, "d"); (5, "e") ];
  Alcotest.(check (list (list string))) "any-valued table"
    [ [ "b"; "a" ]; [ "c" ]; [ "d" ]; [ "e" ]; []; [] ]
    (List.map (Id_table.Poly.get p) [ 1; 70; -3; 5; 0; 71 ])

let suite =
  [
    Alcotest.test_case "instr reg defs/uses" `Quick test_reg_defs_uses;
    Alcotest.test_case "instr mem defs/uses" `Quick test_mem_defs_uses;
    Alcotest.test_case "instr rewrites" `Quick test_rewrites;
    Alcotest.test_case "phi accessors" `Quick test_phi_accessors;
    Alcotest.test_case "block surgery" `Quick test_block_surgery;
    Alcotest.test_case "id tables past their range" `Quick test_id_tables;
    Alcotest.test_case "retarget/succs" `Quick test_retarget_succs;
    Alcotest.test_case "preds and rpo" `Quick test_preds_rpo;
    Alcotest.test_case "split edge" `Quick test_split_edge;
    Alcotest.test_case "critical edges" `Quick test_critical_edges;
    Alcotest.test_case "remove unreachable" `Quick test_remove_unreachable;
    Alcotest.test_case "recompute preds order" `Quick
      test_recompute_preds_order;
    Alcotest.test_case "dead preds cleared" `Quick test_dead_preds_cleared;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate stale preds" `Quick test_validate_stale_preds;
    Alcotest.test_case "validate phi in body" `Quick test_validate_phi_in_body;
    Alcotest.test_case "validate phi arity" `Quick test_validate_phi_sources_mismatch;
  ]
