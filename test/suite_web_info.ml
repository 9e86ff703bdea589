(* Direct tests of the section 4.2/4.3 machinery: web reference sets,
   loads_added, dependent phis, stores_added with dominance pruning —
   checked on the paper's Figure 7 program structure. *)

open Rp_ir
open Rp_analysis
module Pr = Rp_core.Promote
module Cm = Rp_core.Cost_model
module W = Rp_core.Web_info

(* Compile the Figure 7 program and find the loop interval and the web
   of x inside it. *)
let fig7_setup () =
  let src =
    {|
int x = 0;
int c = 0;
void foo() { c++; }
int main() {
  int i;
  for (i = 0; i < 100; i++) {
    x++;
    if (x < 30) { foo(); }
  }
  print(x);
  return 0;
}
|}
  in
  let prog, trees = Rp_core.Pipeline.prepare src in
  ignore (Rp_core.Pipeline.attach_profile prog trees);
  let f = Option.get (Func.find_func prog "main") in
  let tree = List.assoc "main" trees in
  (* the innermost non-root interval is the for loop *)
  let loop =
    List.find
      (fun (iv : Intervals.t) -> not iv.Intervals.is_root)
      tree.Intervals.all
  in
  let webs = Rp_ssa.Webs.in_blocks prog.Func.vartab f loop.Intervals.blocks in
  (* x is variable 0 (first global declared); take its phi-connected
     web (the one with several members), not a singleton call-def web *)
  let x_web =
    List.find
      (fun w ->
        List.exists (fun (r : Resource.t) -> r.base = 0) w
        && List.length w > 1)
      webs
  in
  let w = W.compute f loop (Resource.ResSet.of_list x_web) in
  (prog, f, loop, w)

let test_web_sets () =
  let _, _, _, w = fig7_setup () in
  (* the loop loads x twice per iteration (x++ and the comparison) and
     stores it once; the call to foo is the aliased use *)
  Alcotest.(check int) "two loads" 2 (List.length w.W.loads);
  Alcotest.(check int) "one store" 1 (List.length w.W.stores);
  Alcotest.(check int) "one aliased use" 1 (List.length w.W.aliased_uses);
  (* two joins inside the loop carry phis for x: the header and the
     if-join *)
  Alcotest.(check int) "two phis" 2 (List.length w.W.phis);
  (* unique live-in, as the paper's web property demands *)
  Alcotest.(check bool) "live-in exists" true (w.W.live_in <> None);
  Alcotest.(check bool) "not malformed" false w.W.multiple_live_in;
  (* defs: the store version, the call's may-def version, two phi
     versions *)
  let count p = List.length (List.filter (p w) (W.members w)) in
  Alcotest.(check int) "defs" 4 (count W.defined);
  Alcotest.(check int) "store-defined" 1 (count W.store_defined);
  Alcotest.(check int) "phi-defined" 2 (count W.phi_defined)

let test_loads_added () =
  let _, _, loop, w = fig7_setup () in
  let la = Cm.loads_added w in
  (* two leaves need loads: the live-in at the loop preheader and the
     call's may-def version after the call *)
  Alcotest.(check int) "two loads added" 2 (Cm.PointSet.cardinal la);
  let live_in = Option.get w.W.live_in in
  Alcotest.(check bool) "live-in leaf load present" true
    (Cm.PointSet.exists (fun (r, _) -> Resource.equal r live_in) la);
  (* one of the load points is the preheader *)
  Alcotest.(check bool) "one load at the preheader" true
    (Cm.PointSet.exists (fun (_, l) -> l = loop.Intervals.preheader) la)

let test_dependent_phis_and_stores_added () =
  let _, f, _, w = fig7_setup () in
  let dom = Dom.compute f in
  let needed = Cm.dependent_phis w in
  (* the call reads the freshly stored version directly (the condition
     re-reads x after x++), so it is a set-2 point and no phi is on the
     dependence path *)
  Alcotest.(check int) "no dependent phi" 0 (Resource.ResSet.cardinal needed);
  let sa = Cm.stores_added f dom w in
  (* exactly one compensation store, of the store-defined version *)
  Alcotest.(check int) "one store added" 1 (List.length sa);
  let r, point = List.hd sa in
  Alcotest.(check bool) "it is the store-defined version" true
    (W.store_defined w r);
  (* and it lands in a block executed as often as the call, i.e. the
     cold block, far less than the loop body *)
  let body_freq =
    List.fold_left
      (fun acc ((s : W.ref_site), _) -> max acc (Func.block_freq f s.bid))
      0.0 w.W.stores
  in
  Alcotest.(check bool) "compensation point is colder than the store" true
    (Func.block_freq f (W.point_bid point) < body_freq)

let test_set1_through_phis () =
  (* the aliased load reads a JOIN of two stores: both store operands of
     the dependent phi get compensation points at their predecessor
     block ends (the paper's set 1) *)
  let src =
    {|
int x = 0;
int c = 0;
void foo() { c++; }
int main() {
  int i;
  for (i = 0; i < 50; i++) {
    if (i - i / 2 * 2 == 0) { x = x + 1; } else { x = x + 2; }
    if (i > 45) {
      foo();       // uses the if-join phi of the two stores
    }
  }
  print(x);
  return 0;
}
|}
  in
  let prog, trees = Rp_core.Pipeline.prepare src in
  ignore (Rp_core.Pipeline.attach_profile prog trees);
  let f = Option.get (Func.find_func prog "main") in
  let tree = List.assoc "main" trees in
  let loop =
    List.find
      (fun (iv : Intervals.t) -> not iv.Intervals.is_root)
      tree.Intervals.all
  in
  let webs = Rp_ssa.Webs.in_blocks prog.Func.vartab f loop.Intervals.blocks in
  let x_web =
    List.find
      (fun w ->
        List.exists (fun (r : Resource.t) -> r.base = 0) w
        && List.length w > 1)
      webs
  in
  let w = W.compute f loop (Resource.ResSet.of_list x_web) in
  let dom = Dom.compute f in
  let needed = Cm.dependent_phis w in
  Alcotest.(check bool) "the if-join phi is depended on" true
    (Resource.ResSet.cardinal needed >= 1);
  let sa = Cm.stores_added f dom w in
  Alcotest.(check int) "both store operands get a point" 2 (List.length sa);
  List.iter
    (fun (r, _) ->
      Alcotest.(check bool) "each is store-defined" true (W.store_defined w r))
    sa;
  (* end to end: loads promote, but store removal is (correctly)
     declined — the set-1 clone points sit at the stores' own join
     predecessors and would execute exactly as often as the stores
     they replace, so the store side of the profit is zero *)
  let report = Helpers.check_pipeline "set1 program" src in
  Alcotest.(check bool) "webs promoted" true
    (report.Rp_core.Pipeline.promote_stats.Pr.webs_promoted >= 1);
  Alcotest.(check bool) "loads improved" true
    (Helpers.dynamic_loads report.Rp_core.Pipeline.dynamic_after
    < Helpers.dynamic_loads report.Rp_core.Pipeline.dynamic_before)

(* Promotion through a hand-built improper (irreducible) interval: the
   cycle {2,3} is entered at both 2 and 3, so the preheader is the
   least common dominator; a memory variable hot in the cycle must
   still promote correctly. *)
let test_irreducible_promotion () =
  let prog = Func.create_prog () in
  let x =
    Resource.add_var prog.Func.vartab ~name:"x" ~kind:Resource.Global ~init:5
  in
  let f = Func.create_func ~name:"main" in
  Func.add_func prog f;
  let b = Array.init 5 (fun _ -> Func.add_block f) in
  f.Func.entry <- b.(0).Block.bid;
  (* 0 -> 1 | 2 ; 1 -> 3 ; 2 -> 3 ; 3 -> 2 | 4 ; 4 ret *)
  let n = Func.fresh_reg ~name:"n" f in
  Block.insert_at_end b.(0)
    (Func.mk_instr f (Instr.Copy { dst = n; src = Imm 0 }));
  b.(0).Block.term <- Block.Br { cond = Imm 1; t = 1; f = 2 };
  b.(1).Block.term <- Block.Jmp 3;
  b.(2).Block.term <- Block.Jmp 3;
  (* the cycle body: x++ via load/store, loop 6 times *)
  let t1 = Func.fresh_reg f and t2 = Func.fresh_reg f in
  let t3 = Func.fresh_reg f and t4 = Func.fresh_reg f in
  Block.insert_at_end b.(3)
    (Func.mk_instr f (Instr.Load { dst = t1; src = Resource.unversioned x }));
  Block.insert_at_end b.(3)
    (Func.mk_instr f (Instr.Bin { dst = t2; op = Instr.Add; l = Reg t1; r = Imm 1 }));
  Block.insert_at_end b.(3)
    (Func.mk_instr f (Instr.Store { dst = Resource.unversioned x; src = Reg t2 }));
  (* counter: n++ ; loop while n < 6 — note n is multiply assigned,
     SSA construction will phi it *)
  Block.insert_at_end b.(3)
    (Func.mk_instr f (Instr.Bin { dst = t3; op = Instr.Add; l = Reg n; r = Imm 1 }));
  Block.insert_at_end b.(3)
    (Func.mk_instr f (Instr.Copy { dst = n; src = Reg t3 }));
  Block.insert_at_end b.(3)
    (Func.mk_instr f (Instr.Bin { dst = t4; op = Instr.Lt; l = Reg n; r = Imm 6 }));
  b.(3).Block.term <- Block.Br { cond = Reg t4; t = 2; f = 4 };
  let t5 = Func.fresh_reg f in
  Block.insert_at_end b.(4)
    (Func.mk_instr f (Instr.Load { dst = t5; src = Resource.unversioned x }));
  Block.insert_at_end b.(4) (Func.mk_instr f (Instr.Print { src = Reg t5 }));
  Block.insert_at_end b.(4)
    (Func.mk_instr f (Instr.Exit_use { muses = [ Resource.unversioned x ] }));
  b.(4).Block.term <- Block.Ret (Some (Imm 0));
  Cfg.recompute_preds f;
  let before = Rp_interp.Interp.run prog in
  let tree = Intervals.normalise f in
  Rp_ssa.Construct.run f;
  Rp_ssa.Verify.assert_ok prog.Func.vartab f;
  Rp_core.Pipeline.attach_profile prog [ ("main", tree) ] |> ignore;
  let stats = Rp_core.Promote.promote_function f prog.Func.vartab tree in
  Rp_ssa.Verify.assert_ok prog.Func.vartab f;
  Rp_opt.Cleanup.run f;
  let after = Rp_interp.Interp.run prog in
  Alcotest.(check bool) "behaviour preserved" true
    (Rp_interp.Interp.same_behaviour before after);
  Alcotest.(check bool) "promotion happened" true
    (stats.Rp_core.Promote.webs_promoted >= 1);
  Alcotest.(check bool) "dynamic loads reduced" true
    (after.Rp_interp.Interp.counters.Rp_interp.Interp.loads
    < before.Rp_interp.Interp.counters.Rp_interp.Interp.loads)

(* ------------------------------------------------------------------ *)
(* The one-scan web records against the single-web scan *)

(* [got] (from [W.of_interval] or [W.rescan]) equals [W.compute] of the
   same members, field by field: every list in order (same instruction,
   block and resource), the live-in, and each member's answers. *)
let check_same ctx (got : W.t) (want : W.t) =
  let fail what = Alcotest.failf "%s: %s differ" ctx what in
  let refs what a b =
    if
      List.length a <> List.length b
      || not
           (List.for_all2
              (fun ((s : W.ref_site), r) ((s' : W.ref_site), r') ->
                s.instr == s'.instr && s.bid = s'.bid && Resource.equal r r')
              a b)
    then fail what
  in
  if got.W.base <> want.W.base then fail "bases";
  refs "loads" got.W.loads want.W.loads;
  refs "stores" got.W.stores want.W.stores;
  refs "aliased uses" got.W.aliased_uses want.W.aliased_uses;
  refs "phis" got.W.phis want.W.phis;
  if Option.compare Resource.compare got.W.live_in want.W.live_in <> 0 then
    fail "live-ins";
  if got.W.multiple_live_in <> want.W.multiple_live_in then
    fail "multiple_live_in";
  if W.has_defs got <> W.has_defs want then fail "has_defs";
  if not (List.equal Resource.equal (W.members got) (W.members want)) then
    fail "members";
  List.iter
    (fun r ->
      List.iter
        (fun (what, p) -> if p got r <> p want r then fail what)
        [
          ("mem", W.mem);
          ("defined", W.defined);
          ("store_defined", W.store_defined);
          ("phi_defined", W.phi_defined);
          ("is_leaf", W.is_leaf);
        ])
    (W.members want)

(* Every web of the interval, as one scan builds them, against the
   single-web scan, and the rescan of the same webs against both; also
   that the webs are those of [Webs.in_blocks], in its order. *)
let check_interval ctx (tab : Resource.table) (f : Func.t) (iv : Intervals.t) =
  let ws = W.of_interval tab f iv in
  let webs = Rp_ssa.Webs.in_blocks tab f iv.Intervals.blocks in
  if List.length ws <> List.length webs then Alcotest.failf "%s: web count" ctx;
  List.iter2
    (fun w members ->
      let members = Resource.ResSet.of_list members in
      if
        not
          (List.equal Resource.equal (W.members w)
             (Resource.ResSet.elements members))
      then Alcotest.failf "%s: web members or order differ" ctx;
      check_same ctx w (W.compute f iv members))
    ws webs;
  List.iter2 (check_same (ctx ^ " rescan")) (W.rescan f iv ws) ws;
  List.length ws

let test_oracle_workloads () =
  let sources =
    List.map
      (fun (w : Rp_workloads.Registry.workload) ->
        (w.Rp_workloads.Registry.name, w.Rp_workloads.Registry.source))
      Rp_workloads.Registry.all
    @ [ ("gen60", (Rp_workloads.Registry.generated 60).Rp_workloads.Registry.source) ]
  in
  let intervals = ref 0 and webs = ref 0 in
  List.iter
    (fun (name, src) ->
      let prog, trees = Rp_core.Pipeline.prepare src in
      ignore (Rp_core.Pipeline.attach_profile prog trees);
      List.iter
        (fun (f : Func.t) ->
          match List.assoc_opt f.Func.fname trees with
          | None -> ()
          | Some tree ->
              (* check each interval in the state promotion finds it
                 in: its children already promoted *)
              List.iter
                (fun (iv : Intervals.t) ->
                  let ctx =
                    Printf.sprintf "%s/%s interval %d" name f.Func.fname
                      iv.Intervals.id
                  in
                  webs := !webs + check_interval ctx prog.Func.vartab f iv;
                  incr intervals;
                  Pr.promote_in_interval Pr.default_config f prog.Func.vartab
                    (Pr.empty_stats ()) iv)
                tree.Intervals.all)
        prog.Func.funcs)
    sources;
  Alcotest.(check bool) "intervals checked" true (!intervals > 50);
  Alcotest.(check bool) "webs checked" true (!webs > 1000)

(* Random programs: the phi graphs of the web construction test (calls,
   an array variable, arbitrary versions) plus pointer stores and loads,
   dummies, exit uses and phis joining versions of different variables
   (malformed, but the scan must still agree). *)
let gen_program =
  let open QCheck.Gen in
  Suite_webs.gen_graph >>= fun ((nvars, maxver, nblocks, _) as g) ->
  let res = pair (int_range 0 (nvars - 1)) (int_range 1 maxver) in
  let rs = list_size (int_range 0 4) res in
  list_size (int_range 0 16)
    (quad (int_range 0 (nblocks - 1)) (int_range 0 4) rs rs)
  >>= fun extra -> return (g, extra)

let build_program (g, extra) =
  let tab, f, blocks = Suite_webs.build_graph g in
  let r (base, ver) = { Resource.base; ver } in
  List.iter
    (fun (k, kind, defs, uses) ->
      let defs = List.map r defs and muses = List.map r uses in
      let op =
        match kind with
        | 0 -> Instr.Ptr_store { addr = Imm 0; src = Imm 0; mdefs = defs; muses }
        | 1 -> Instr.Ptr_load { dst = Func.fresh_reg f; addr = Imm 0; muses }
        | 2 -> Instr.Dummy_aload { muses }
        | 3 -> Instr.Exit_use { muses }
        | _ -> (
            match defs with
            | dst :: _ -> Instr.Mphi { dst; srcs = List.mapi (fun p s -> (p, s)) muses }
            | [] -> Instr.Exit_use { muses })
      in
      let b = Func.block f k and i = Func.mk_instr f op in
      match op with Instr.Mphi _ -> Block.add_phi b i | _ -> Block.insert_at_end b i)
    extra;
  (tab, f, blocks)

let prop_oracle_random =
  QCheck.Test.make ~name:"one-scan web records = single-web scan (random)"
    ~count:1000
    (QCheck.make gen_program ~print:(fun (g, extra) ->
         Printf.sprintf "%s extra=%d" (Suite_webs.print_graph g) (List.length extra)))
    (fun p ->
      let tab, f, blocks = build_program p in
      let interval blocks =
        {
          Intervals.id = 0;
          entries = blocks;
          blocks;
          children = [];
          preheader = 0;
          exit_edges = [];
          proper = true;
          is_root = true;
          depth = 0;
        }
      in
      (* all blocks, and all but the last as a second interval *)
      ignore (check_interval "random" tab f (interval blocks));
      (match Ids.IntSet.max_elt_opt blocks with
      | Some b when Ids.IntSet.cardinal blocks > 1 ->
          ignore
            (check_interval "random, one block less" tab f
               (interval (Ids.IntSet.remove b blocks)))
      | _ -> ());
      true)

let suite =
  [
    Alcotest.test_case "web reference sets (fig 7)" `Quick test_web_sets;
    Alcotest.test_case "loads_added (fig 7)" `Quick test_loads_added;
    Alcotest.test_case "dependent phis + stores_added (fig 7)" `Quick
      test_dependent_phis_and_stores_added;
    Alcotest.test_case "stores_added through phis (set 1)" `Quick
      test_set1_through_phis;
    Alcotest.test_case "irreducible interval promotion" `Quick
      test_irreducible_promotion;
    Alcotest.test_case "one-scan web records = single-web scan (workloads)"
      `Quick test_oracle_workloads;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
      prop_oracle_random;
  ]
