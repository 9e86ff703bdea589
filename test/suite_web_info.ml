(* Direct tests of the section 4.2/4.3 machinery: web reference sets,
   loads_added, dependent phis, stores_added with dominance pruning —
   checked on the paper's Figure 7 program structure — and the oracles
   of the interval scan: the one-scan web records against the
   single-web scan, and the scan merged from a promotion state's block
   records against a fresh scan.  [RPROMOTE_JOBS] (CI sets 1 and 4)
   sets how many functions the oracles promote in parallel. *)

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
  let webs = Helpers.webs_in_blocks prog.Func.vartab f loop.Intervals.blocks in
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
  let webs = Helpers.webs_in_blocks prog.Func.vartab f loop.Intervals.blocks in
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
  if got.W.aliased <> want.W.aliased then fail "aliased flags";
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
   single-web scan, and the rescan of each variable's webs against
   both; also that the webs are those of [Helpers.webs_in_blocks], in its
   order, and that a scan without all lists leaves out exactly the
   lists of the webs with nothing to remove. *)
let check_interval ctx (tab : Resource.table) (f : Func.t) (iv : Intervals.t) =
  let ws = W.of_interval tab f iv in
  List.iter2
    (fun (w : W.t) (p : W.t) ->
      if Cm.nothing_to_remove w then begin
        if p.W.phis <> [] || p.W.aliased_uses <> [] then
          Alcotest.failf "%s: lists of a web with nothing to remove" ctx;
        check_same (ctx ^ " without lists")
          p { w with W.phis = []; aliased_uses = [] }
      end
      else check_same (ctx ^ " without lists") p w)
    ws
    (W.of_interval ~all_lists:false tab f iv);
  let webs = Helpers.webs_in_blocks tab f iv.Intervals.blocks in
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
  let index = Rp_ssa.Occ_index.build f in
  List.sort_uniq compare (List.map (fun w -> w.W.base) ws)
  |> List.iter (fun base ->
         let same = List.filter (fun w -> w.W.base = base) ws in
         List.iter2 (check_same (ctx ^ " rescan"))
           (W.rescan index iv same) same);
  List.length ws

(* The merged record of an interval's scan, read through the block
   records of [arena] (a promotion state's), against a fresh scan of
   the same blocks: the same occurrences in the same order (resource,
   role, site instruction and block), the same members and webs, and
   the same web infos built from each.  The two arenas number resources
   apart, so resources are compared, not ids. *)
let check_merged ctx (tab : Resource.table) (f : Func.t) arena
    (iv : Intervals.t) =
  let module S = Rp_ssa.Webs in
  let blocks = iv.Intervals.blocks in
  let fresh = S.scan tab f blocks in
  let merged = S.scan ~arena tab f blocks in
  let fail what = Alcotest.failf "%s: merged record: %s differ" ctx what in
  let res (s : S.scan) i = s.S.res.(i) in
  if merged.S.nocc <> fresh.S.nocc then fail "occurrence counts";
  for k = 0 to fresh.S.nocc - 1 do
    let occ (s : S.scan) =
      let what = s.S.occ_what.(k) in
      ( res s s.S.occ_id.(k),
        what land S.role_mask,
        s.S.sites.(what lsr S.role_bits) )
    in
    let r, role, site = occ merged and r', role', site' = occ fresh in
    if not (Resource.equal r r') then fail "resources";
    if role <> role' then fail "roles";
    if site.S.instr != site'.S.instr || site.S.bid <> site'.S.bid then
      fail "sites"
  done;
  if merged.S.nwebs <> fresh.S.nwebs then fail "web counts";
  if merged.S.nmembers <> fresh.S.nmembers then fail "member counts";
  for m = 0 to fresh.S.nmembers - 1 do
    let i = merged.S.members.(m) and i' = fresh.S.members.(m) in
    if not (Resource.equal (res merged i) (res fresh i')) then fail "members";
    if merged.S.web.(i) <> fresh.S.web.(i') then fail "webs"
  done;
  let want = W.of_interval tab f iv in
  let got = W.of_interval ~arena tab f iv in
  if List.length got <> List.length want then fail "web info counts";
  List.iter2 (check_same (ctx ^ " merged")) got want

let jobs = Suite_occ_index.jobs

let d = Rp_core.Pipeline.default_options

let configs =
  [
    ("default", d);
    ("--regs 6", Helpers.with_regs (Some 6) d);
    ("--scalrep", { d with Rp_core.Pipeline.scalrep = true });
  ]

(* Promote every function of [src] interval by interval, checking each
   interval as promotion meets it (its children already promoted with
   the same state): its merged record against a fresh scan and, when
   [webs], its web infos against the single-web scan.  Functions run
   on [jobs] domains.  Returns the numbers of intervals and webs
   checked. *)
let promote_checked ~profile ~webs ~options name src =
  let module P = Rp_core.Pipeline in
  let prog, trees = P.prepare ~options src in
  if profile then ignore (P.attach_profile ~options prog trees);
  let cfg = options.P.promote and tab = prog.Func.vartab in
  let intervals = Atomic.make 0 and nwebs = Atomic.make 0 in
  Rp_par.Pool.with_pool ~jobs (fun pool ->
      Rp_par.Pool.iter pool
        (fun (f : Func.t) ->
          match List.assoc_opt f.Func.fname trees with
          | None -> ()
          | Some tree ->
              if not profile then Freq.estimate f tree;
              let st = Pr.state f tab and stats = Pr.empty_stats () in
              List.iter
                (fun (iv : Intervals.t) ->
                  let ctx =
                    Printf.sprintf "%s/%s interval %d" name f.Func.fname
                      iv.Intervals.id
                  in
                  check_merged ctx tab f (Pr.arena st) iv;
                  if webs then
                    ignore
                      (Atomic.fetch_and_add nwebs
                         (check_interval ctx tab f iv));
                  Atomic.incr intervals;
                  Pr.promote_in_interval cfg st stats iv)
                tree.Intervals.all)
        prog.Func.funcs);
  (Atomic.get intervals, Atomic.get nwebs)

let test_oracle_workloads () =
  let sources =
    List.map
      (fun (w : Rp_workloads.Registry.workload) ->
        (w.Rp_workloads.Registry.name, w.Rp_workloads.Registry.source))
      Rp_workloads.Registry.all
    @ List.map
        (fun n ->
          ( Printf.sprintf "gen%d" n,
            (Rp_workloads.Registry.generated n).Rp_workloads.Registry.source ))
        [ 60; 120 ]
  in
  List.iter
    (fun (cname, options) ->
      let intervals = ref 0 and webs = ref 0 in
      List.iter
        (fun (name, src) ->
          let i, w =
            promote_checked ~profile:true ~webs:true ~options
              (cname ^ " " ^ name) src
          in
          intervals := !intervals + i;
          webs := !webs + w)
        sources;
      Alcotest.(check bool)
        (cname ^ ": intervals checked")
        true (!intervals > 50);
      Alcotest.(check bool) (cname ^ ": webs checked") true (!webs > 1000))
    configs

let prop_merged_random =
  QCheck.Test.make ~name:"merged block records = fresh scan (random programs)"
    ~count:100 Suite_qcheck.arb_program (fun src ->
      List.iter
        (fun (cname, options) ->
          ignore
            (promote_checked ~profile:false ~webs:false ~options cname src))
        configs;
      true)

(* Random programs: the phi graphs of the web construction test (calls,
   an array variable, arbitrary versions) plus pointer stores and loads,
   dummies, exit uses and more phis.  Every phi joins versions of its
   target's variable, as {!Rp_ssa.Verify} demands. *)
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
            | (dst : Resource.t) :: _ ->
                let srcs =
                  List.mapi
                    (fun p (s : Resource.t) -> (p, { s with base = dst.base }))
                    muses
                in
                Instr.Mphi { dst; srcs }
            | [] -> Instr.Exit_use { muses })
      in
      let b = Func.block f k and i = Func.mk_instr f op in
      match op with Instr.Mphi _ -> Block.add_phi b i | _ -> Block.insert_at_end b i)
    extra;
  (tab, f, blocks)

(* A root interval over the given blocks. *)
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

let prop_oracle_random =
  QCheck.Test.make ~name:"one-scan web records = single-web scan (random)"
    ~count:1000
    (QCheck.make gen_program ~print:(fun (g, extra) ->
         Printf.sprintf "%s extra=%d" (Suite_webs.print_graph g) (List.length extra)))
    (fun p ->
      let tab, f, blocks = build_program p in
      (* all blocks, and all but the last as a second interval *)
      ignore (check_interval "random" tab f (interval blocks));
      (match Ids.IntSet.max_elt_opt blocks with
      | Some b when Ids.IntSet.cardinal blocks > 1 ->
          ignore
            (check_interval "random, one block less" tab f
               (interval (Ids.IntSet.remove b blocks)))
      | _ -> ());
      true)

(* A phi joining two variables, which Verify rejects, makes no web:
   the scan refuses it instead of mixing two variables' flags. *)
let test_cross_variable_web () =
  let tab, f, blocks = Suite_webs.build_graph (3, 4, 1, []) in
  Block.add_phi (Func.block f 0)
    (Func.mk_instr f
       (Instr.Mphi
          {
            dst = { Resource.base = 2; ver = 3 };
            srcs = [ (0, { Resource.base = 0; ver = 2 }) ];
          }));
  Alcotest.check_raises "of_interval"
    (Invalid_argument "Web_info: a web of several variables") (fun () ->
      ignore (W.of_interval tab f (interval blocks)))

(* [Promote.promote_in_interval] rescans a variable's later webs only
   after the incremental updater ran for it: no other step of a web's
   promotion touches another web.  Promote every interval of [src]
   (default options, measured profile) and, after each web for which
   the updater did not run, check every later web of its variable in
   the interval, as promotion holds it, against [W.rescan] of the
   current IR.  Promotion's webs come from [admit], which sees them in
   promotion order before the first is promoted.  [on_edit] is called
   after each web, and before that once more when the updater ran,
   which the clones' new versions tell apart.  Returns the number of
   webs checked. *)
let no_rescan_checked name src =
  let module P = Rp_core.Pipeline in
  let options = P.default_options in
  let prog, trees = P.prepare ~options src in
  ignore (P.attach_profile ~options prog trees);
  let tab = prog.Func.vartab and checked = ref 0 in
  List.iter
    (fun (f : Func.t) ->
      match List.assoc_opt f.Func.fname trees with
      | None -> ()
      | Some tree ->
          let st = Pr.state f tab and stats = Pr.empty_stats () in
          let top base =
            Option.value ~default:0 (Hashtbl.find_opt f.Func.mver base)
          in
          List.iter
            (fun (iv : Intervals.t) ->
              let ctx =
                Printf.sprintf "%s/%s interval %d" name f.Func.fname
                  iv.Intervals.id
              in
              let seen = ref [] in
              let webs = lazy (Array.of_list (List.rev !seen)) in
              let k = ref 0 and updated = ref false in
              let tops = ref (Hashtbl.copy f.Func.mver) in
              let admit w =
                seen := w :: !seen;
                true
              in
              let on_edit index =
                let webs = Lazy.force webs in
                let base = webs.(!k).W.base in
                let grew =
                  top base
                  > Option.value ~default:0 (Hashtbl.find_opt !tops base)
                in
                if grew && not !updated then updated := true
                else begin
                  let later = ref [] in
                  for j = Array.length webs - 1 downto !k + 1 do
                    if webs.(j).W.base = base then later := j :: !later
                  done;
                  (if !later <> [] then
                     let fresh =
                       W.rescan index iv (List.map (fun j -> webs.(j)) !later)
                     in
                     List.iter2
                       (fun j w ->
                         if !updated then webs.(j) <- w
                         else begin
                           (* promotion takes no lists for a web with
                              nothing to remove *)
                           let w =
                             if Cm.nothing_to_remove w then
                               { w with W.phis = []; aliased_uses = [] }
                             else w
                           in
                           check_same
                             (Printf.sprintf "%s, web %d after web %d" ctx j !k)
                             webs.(j) w;
                           incr checked
                         end)
                       !later fresh);
                  updated := false;
                  tops := Hashtbl.copy f.Func.mver;
                  incr k
                end
              in
              Pr.promote_in_interval ~on_edit ~admit options.P.promote st
                stats iv)
            tree.Intervals.all)
    prog.Func.funcs;
  !checked

let test_no_rescan () =
  let module R = Rp_workloads.Registry in
  let checked =
    List.fold_left
      (fun n (name, src) -> n + no_rescan_checked name src)
      0
      (List.map (fun (w : R.workload) -> (w.R.name, w.R.source)) R.all
      @ List.init 8 (fun k ->
            let n = 60 * (k + 1) in
            (Printf.sprintf "gen%d" n, (R.generated n).R.source)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d later webs checked" checked)
    true (checked > 1000)

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
    Alcotest.test_case "a web of two variables is refused" `Quick
      test_cross_variable_web;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
      prop_oracle_random;
    Suite_qcheck.qtest prop_merged_random;
    Alcotest.test_case "no rescan without the updater (workloads)" `Quick
      test_no_rescan;
  ]
