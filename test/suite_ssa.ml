(* SSA construction, verification, webs and out-of-SSA tests. *)

open Rp_ir
open Rp_analysis
open Rp_ssa

(* Build, normalise and SSA-convert a MiniC source; return the program. *)
let ssa_of ?(engine = Construct.Cytron) src =
  let prog = Rp_minic.Lower.compile src in
  let trees =
    List.map (fun (f : Func.t) -> (f.Func.fname, Intervals.normalise f)) prog.Func.funcs
  in
  List.iter (Construct.run ~engine) prog.Func.funcs;
  (prog, trees)

let count_instrs pred (f : Func.t) =
  Func.fold_blocks
    (fun acc b ->
      List.fold_left
        (fun acc (i : Instr.t) -> if pred i then acc + 1 else acc)
        acc (Block.instrs b))
    0 f

let is_mphi (i : Instr.t) = Instr.is_mphi i

let is_rphi (i : Instr.t) = Instr.is_rphi i

(* ------------------------------------------------------------------ *)

let simple_loop_src =
  {|
int x = 0;
int main() {
  int i;
  for (i = 0; i < 10; i++) { x = x + i; }
  print(x);
  return 0;
}
|}

let test_construct_verifies () =
  let prog, _ = ssa_of simple_loop_src in
  List.iter (Verify.assert_ok prog.Func.vartab) prog.Func.funcs

let test_construct_loop_phis () =
  let prog, _ = ssa_of simple_loop_src in
  let main = Option.get (Func.find_func prog "main") in
  (* the loop needs a memory phi for x and a register phi for i *)
  Alcotest.(check bool) "has memory phi" true (count_instrs is_mphi main >= 1);
  Alcotest.(check bool) "has register phi" true (count_instrs is_rphi main >= 1)

let test_construct_pruned () =
  (* x is defined in both branches but dead after the join: pruned SSA
     places no phi for a dead variable; i is live and gets one *)
  let src =
    {|
int main() {
  int x = 0;
  int i = 0;
  if (i < 1) { x = 1; } else { x = 2; }
  i = i + x;
  int y = 3;
  if (i < 10) { y = 4; } else { y = 5; }
  print(i);
  return 0;
}
|}
  in
  let prog, _ = ssa_of src in
  let main = Option.get (Func.find_func prog "main") in
  Verify.assert_ok prog.Func.vartab main;
  (* y is dead after the second diamond: its phi must have been pruned *)
  let phis = count_instrs is_rphi main in
  (* exactly one live join (for x feeding i); i itself is straight-line *)
  Alcotest.(check int) "pruned phi count" 1 phis

let test_versions_positive () =
  let prog, _ = ssa_of simple_loop_src in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_blocks
        (fun b ->
          Block.iter_instrs
            (fun i ->
              List.iter
                (fun (r : Resource.t) ->
                  Alcotest.(check bool) "version > 0" true (r.ver > 0))
                (Instr.mem_uses i.op @ Instr.mem_defs i.op))
            b)
        f)
    prog.Func.funcs

let test_construct_sreedhar_gao_agrees () =
  (* both IDF engines must produce verifying SSA with the same number
     of phis *)
  let prog1, _ = ssa_of ~engine:Construct.Cytron simple_loop_src in
  let prog2, _ = ssa_of ~engine:Construct.Sreedhar_gao simple_loop_src in
  List.iter2
    (fun (f1 : Func.t) (f2 : Func.t) ->
      Verify.assert_ok prog1.Func.vartab f1;
      Verify.assert_ok prog2.Func.vartab f2;
      Alcotest.(check int)
        (f1.Func.fname ^ ": same phi count")
        (count_instrs Instr.is_phi f1)
        (count_instrs Instr.is_phi f2))
    prog1.Func.funcs prog2.Func.funcs

let test_aliased_defs_get_versions () =
  let src =
    {|
int g = 1;
void f() { g = g + 1; }
int main() {
  f();
  print(g);
  return 0;
}
|}
  in
  let prog, _ = ssa_of src in
  let main = Option.get (Func.find_func prog "main") in
  (* the call must define a fresh version of g and use the entry one *)
  let found = ref false in
  Func.iter_blocks
    (fun b ->
      Iseq.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call { mdefs; muses; _ } ->
              found := true;
              List.iter2
                (fun (d : Resource.t) (u : Resource.t) ->
                  Alcotest.(check bool) "def is a new version" true (d.ver > u.ver))
                mdefs muses
          | _ -> ())
        b.Block.body)
    main;
  Alcotest.(check bool) "call found" true !found

(* ------------------------------------------------------------------ *)
(* Webs *)

let test_webs_fig_calls () =
  (* the paper's example from 4.2: x = ..; foo(); bar(); gives three
     webs for x, because each call starts a new name *)
  let src =
    {|
int x = 0;
void foo() { x = x + 1; }
void bar() { x = x * 2; }
int main() {
  x = 5;
  foo();
  bar();
  print(x);
  return 0;
}
|}
  in
  let prog, _ = ssa_of src in
  let main = Option.get (Func.find_func prog "main") in
  let blocks =
    Func.fold_blocks
      (fun acc b -> Ids.IntSet.add b.Block.bid acc)
      Ids.IntSet.empty main
  in
  let webs = Helpers.webs_in_blocks prog.Func.vartab main blocks in
  (* x has: entry version + store version + foo's def + bar's def;
     no phis in straight-line code, so each is its own web *)
  let x_webs =
    List.filter
      (fun w -> List.exists (fun (r : Resource.t) -> r.base = 0) w)
      webs
  in
  Alcotest.(check bool) "several independent webs" true (List.length x_webs >= 3);
  List.iter
    (fun w -> Alcotest.(check int) "singleton web" 1 (List.length w))
    x_webs

let test_webs_join_phis () =
  let prog, _ = ssa_of simple_loop_src in
  let main = Option.get (Func.find_func prog "main") in
  let blocks =
    Func.fold_blocks
      (fun acc b -> Ids.IntSet.add b.Block.bid acc)
      Ids.IntSet.empty main
  in
  let webs = Helpers.webs_in_blocks prog.Func.vartab main blocks in
  (* in the loop, x's entry version, phi version and store version are
     all connected into one web *)
  let x_web =
    List.find
      (fun w -> List.exists (fun (r : Resource.t) -> r.base = 0) w)
      webs
  in
  Alcotest.(check bool) "web joins versions" true (List.length x_web >= 3)

let test_webs_exclude_arrays () =
  let src =
    {|
int a[4];
int main() {
  a[0] = 1;
  print(a[0]);
  return 0;
}
|}
  in
  let prog, _ = ssa_of src in
  let main = Option.get (Func.find_func prog "main") in
  let blocks =
    Func.fold_blocks
      (fun acc b -> Ids.IntSet.add b.Block.bid acc)
      Ids.IntSet.empty main
  in
  let webs = Helpers.webs_in_blocks prog.Func.vartab main blocks in
  Alcotest.(check int) "no webs for arrays" 0 (List.length webs)

(* ------------------------------------------------------------------ *)
(* Destruct (out of SSA) *)

let test_destruct_preserves_behaviour () =
  let srcs =
    [
      simple_loop_src;
      {|
int x = 0;
int main() {
  int i;
  int a = 1;
  int b = 2;
  for (i = 0; i < 5; i++) {
    int t = a;
    a = b;
    b = t;       // swap forces a parallel-copy cycle at the join
    x = x + a;
  }
  print(a); print(b); print(x);
  return 0;
}
|};
    ]
  in
  List.iter
    (fun src ->
      let prog, _ = ssa_of src in
      let before = Rp_interp.Interp.run prog in
      List.iter Destruct.run prog.Func.funcs;
      (* no phis remain, all resources unversioned *)
      List.iter
        (fun (f : Func.t) ->
          Func.iter_blocks
            (fun b ->
              Alcotest.(check (list int)) "no phis" []
                (List.map
                   (fun (i : Instr.t) -> i.Instr.iid)
                   (Iseq.to_list b.Block.phis));
              Iseq.iter
                (fun (i : Instr.t) ->
                  List.iter
                    (fun (r : Resource.t) ->
                      Alcotest.(check int) "unversioned" 0 r.ver)
                    (Instr.mem_uses i.op @ Instr.mem_defs i.op))
                b.Block.body)
            f)
        prog.Func.funcs;
      let after = Rp_interp.Interp.run prog in
      Alcotest.(check bool) "same behaviour out of SSA" true
        (Rp_interp.Interp.same_behaviour before after))
    srcs

let test_parallel_move_cycle () =
  let f = Func.create_func ~name:"t" in
  (* moves: r0 <- r1, r1 <- r0 (a swap) *)
  f.Func.next_reg <- 2;
  let seq = Destruct.sequentialise f [ (0, Instr.Reg 1); (1, Instr.Reg 0) ] in
  (* simulate *)
  let env = Hashtbl.create 4 in
  Hashtbl.replace env 0 100;
  Hashtbl.replace env 1 200;
  List.iter
    (fun (d, s) ->
      let v =
        match s with
        | Instr.Reg r -> ( match Hashtbl.find_opt env r with Some v -> v | None -> 0)
        | Instr.Imm n -> n
      in
      Hashtbl.replace env d v)
    seq;
  Alcotest.(check int) "r0 gets old r1" 200 (Hashtbl.find env 0);
  Alcotest.(check int) "r1 gets old r0" 100 (Hashtbl.find env 1)

let test_parallel_move_chain () =
  let f = Func.create_func ~name:"t" in
  f.Func.next_reg <- 3;
  (* r1 <- r0, r2 <- r1: must read old r1 for r2 *)
  let seq = Destruct.sequentialise f [ (1, Instr.Reg 0); (2, Instr.Reg 1) ] in
  let env = Hashtbl.create 4 in
  Hashtbl.replace env 0 7;
  Hashtbl.replace env 1 8;
  Hashtbl.replace env 2 9;
  List.iter
    (fun (d, s) ->
      let v =
        match s with
        | Instr.Reg r -> Hashtbl.find env r
        | Instr.Imm n -> n
      in
      Hashtbl.replace env d v)
    seq;
  Alcotest.(check int) "r1 = old r0" 7 (Hashtbl.find env 1);
  Alcotest.(check int) "r2 = old r1" 8 (Hashtbl.find env 2)

(* The lost-copy/swap oracle.  A parallel copy's meaning is
   simultaneous: every source is read in the OLD state, then every
   target written.  [sequentialise] must implement exactly that with
   ordinary sequential copies, breaking cycles (the swap problem) with
   fresh temporaries and never clobbering a value before its last read
   (the lost-copy problem).  Random parallel assignments with distinct
   targets and arbitrary register/immediate sources cover both. *)
let prop_sequentialise_oracle =
  let gen =
    QCheck.Gen.(
      let* k = int_range 1 8 in
      let* ndst = int_range 1 k in
      let* perm = shuffle_l (List.init k Fun.id) in
      let dsts = List.filteri (fun i _ -> i < ndst) perm in
      let* srcs =
        flatten_l
          (List.map
             (fun _ ->
               oneof
                 [
                   map (fun r -> Instr.Reg r) (int_range 0 (k - 1));
                   map (fun n -> Instr.Imm n) (int_range (-50) 50);
                 ])
             dsts)
      in
      return (k, List.combine dsts srcs))
  in
  QCheck.Test.make ~name:"sequentialise matches the parallel-copy oracle"
    ~count:500 (QCheck.make gen) (fun (k, moves) ->
      let f = Func.create_func ~name:"pc" in
      f.Func.next_reg <- k;
      let seq = Destruct.sequentialise f moves in
      let init r = 1000 + r in
      (* the oracle: all sources evaluated in the initial state *)
      let par = Array.init k init in
      List.iter
        (fun (d, s) ->
          par.(d) <-
            (match s with Instr.Reg r -> init r | Instr.Imm n -> n))
        moves;
      (* the sequentialised copies, executed in order (temps included) *)
      let env = Hashtbl.create 16 in
      for r = 0 to k - 1 do
        Hashtbl.replace env r (init r)
      done;
      List.iter
        (fun (d, s) ->
          let v =
            match s with
            | Instr.Reg r -> (
                match Hashtbl.find_opt env r with
                | Some v -> v
                | None ->
                    QCheck.Test.fail_reportf
                      "sequentialised copy reads uninitialised r%d" r)
            | Instr.Imm n -> n
          in
          Hashtbl.replace env d v)
        seq;
      List.for_all
        (fun r ->
          if List.mem_assoc r moves then Hashtbl.find env r = par.(r)
          else Hashtbl.find env r = init r)
        (List.init k Fun.id))

(* The same oracle over locations, as the backend lowers: registers
   are mapped onto [m] locations (several registers may share one, the
   targets' locations are distinct), a move reads and writes locations,
   and every temporary the lowering creates lives in one extra scratch
   location.  The parallel meaning: each target location receives the
   initial value of its source's location. *)
let prop_sequentialise_over_locations =
  let gen =
    QCheck.Gen.(
      let* m = int_range 1 6 in
      let* k = int_range 1 10 in
      let* locs = array_size (return k) (int_range 0 (m - 1)) in
      (* one target per location, picked among its registers *)
      let* dsts =
        flatten_l
          (List.init m (fun l ->
               let regs =
                 List.filter (fun r -> locs.(r) = l) (List.init k Fun.id)
               in
               if regs = [] then return None
               else
                 let* use = bool in
                 let* r = oneofl regs in
                 return (if use then Some r else None)))
      in
      let dsts = List.filter_map Fun.id dsts in
      let* srcs =
        flatten_l (List.map (fun _ -> int_range 0 (k - 1)) dsts)
      in
      return (m, locs, List.map2 (fun d s -> (d, Instr.Reg s)) dsts srcs))
  in
  QCheck.Test.make ~name:"sequentialise over locations matches the oracle"
    ~count:500 (QCheck.make gen) (fun (m, locs, moves) ->
      let k = Array.length locs in
      let f = Func.create_func ~name:"pc" in
      f.Func.next_reg <- k;
      let loc r = if r < k then locs.(r) else m in
      let seq = Destruct.sequentialise ~loc f moves in
      let init l = 1000 + l in
      let par = Array.init m init in
      List.iter
        (fun (d, s) ->
          match s with
          | Instr.Reg r -> par.(loc d) <- init (loc r)
          | Instr.Imm n -> par.(loc d) <- n)
        moves;
      let env = Array.init (m + 1) init in
      List.iter
        (fun (d, s) ->
          env.(loc d) <-
            (match s with Instr.Reg r -> env.(loc r) | Instr.Imm n -> n))
        seq;
      (* one temporary per cycle, and a cycle has two moves or more *)
      Array.sub env 0 m = par && 2 * (f.Func.next_reg - k) <= List.length moves)

(* Hand-built IR whose register and instruction ids lie past the
   function's counters (left at zero): SSA construction and DCE keep
   their tables in arrays sized by the counters, and must still handle
   every id.  The same program with the ids handed out by the counters
   is the reference. *)
let build_past_counters ~shift =
  let prog = Func.create_prog () in
  let x =
    Resource.add_var prog.Func.vartab ~name:"x" ~kind:Resource.Global ~init:7
  in
  let f = Func.create_func ~name:"main" in
  Func.add_func prog f;
  let b = Array.init 4 (fun _ -> Func.add_block f) in
  f.Func.entry <- b.(0).Block.bid;
  let next = ref 0 in
  let ins blk op =
    let iid = !next + shift in
    incr next;
    Block.insert_at_end blk (Instr.make iid op)
  in
  let r k = k + shift and xr = Resource.unversioned x in
  (* b0: r0 = 1; r1 = r0 + 2 (dead); br -> b1 | b2 *)
  ins b.(0) (Instr.Copy { dst = r 0; src = Imm 1 });
  ins b.(0) (Instr.Bin { dst = r 1; op = Instr.Add; l = Reg (r 0); r = Imm 2 });
  b.(0).Block.term <- Block.Br { cond = Imm 1; t = 1; f = 2 };
  (* b1: r0 = 5; x = r0 *)
  ins b.(1) (Instr.Copy { dst = r 0; src = Imm 5 });
  ins b.(1) (Instr.Store { dst = xr; src = Reg (r 0) });
  b.(1).Block.term <- Block.Jmp 3;
  (* b2: x = r0 *)
  ins b.(2) (Instr.Store { dst = xr; src = Reg (r 0) });
  b.(2).Block.term <- Block.Jmp 3;
  (* b3: r2 = x; print r2; r3 = r0 + r2; ret r3 — joins both names *)
  ins b.(3) (Instr.Load { dst = r 2; src = xr });
  ins b.(3) (Instr.Print { src = Reg (r 2) });
  ins b.(3) (Instr.Bin { dst = r 3; op = Instr.Add; l = Reg (r 0); r = Reg (r 2) });
  b.(3).Block.term <- Block.Ret (Some (Reg (r 3)));
  if shift = 0 then begin
    f.Func.next_reg <- 4;
    f.Func.next_iid <- !next
  end;
  Cfg.recompute_preds f;
  (prog, f)

let test_ids_past_counters () =
  let run shift =
    let prog, f = build_past_counters ~shift in
    let before = Rp_interp.Interp.run prog in
    Construct.run f;
    Verify.assert_ok prog.Func.vartab f;
    let phis pred = count_instrs pred f in
    let rphis = phis (fun i -> match i.op with Instr.Rphi _ -> true | _ -> false)
    and mphis = phis (fun i -> match i.op with Instr.Mphi _ -> true | _ -> false) in
    let removed = Rp_opt.Dce.run f in
    Verify.assert_ok prog.Func.vartab f;
    let after = Rp_interp.Interp.run prog in
    Alcotest.(check bool)
      (Printf.sprintf "behaviour preserved (shift %d)" shift)
      true
      (Rp_interp.Interp.same_behaviour before after);
    (rphis, mphis, removed, Pp.prog_to_string prog)
  in
  let rphis, mphis, removed, _ = run 0 in
  Alcotest.(check (list int)) "reference: one phi per name, one dead add"
    [ 1; 1; 1 ] [ rphis; mphis; removed ];
  let rphis', mphis', removed', _ = run 1000 in
  Alcotest.(check (list int)) "past the counters: the same"
    [ rphis; mphis; removed ] [ rphis'; mphis'; removed' ]

let suite =
  [
    Alcotest.test_case "construct verifies" `Quick test_construct_verifies;
    Alcotest.test_case "loop phis" `Quick test_construct_loop_phis;
    Alcotest.test_case "pruned ssa" `Quick test_construct_pruned;
    Alcotest.test_case "versions positive" `Quick test_versions_positive;
    Alcotest.test_case "sreedhar-gao engine agrees" `Quick
      test_construct_sreedhar_gao_agrees;
    Alcotest.test_case "aliased defs versioned" `Quick test_aliased_defs_get_versions;
    Alcotest.test_case "webs: calls split" `Quick test_webs_fig_calls;
    Alcotest.test_case "webs: phis join" `Quick test_webs_join_phis;
    Alcotest.test_case "webs: arrays excluded" `Quick test_webs_exclude_arrays;
    Alcotest.test_case "destruct behaviour" `Quick test_destruct_preserves_behaviour;
    Alcotest.test_case "parallel move cycle" `Quick test_parallel_move_cycle;
    Alcotest.test_case "parallel move chain" `Quick test_parallel_move_chain;
    Alcotest.test_case "construct + dce: ids past the counters" `Quick
      test_ids_past_counters;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x5eed |])
      prop_sequentialise_oracle;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x5eed |])
      prop_sequentialise_over_locations;
  ]
