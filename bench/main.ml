(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 5), plus the ablations from DESIGN.md.

     dune exec bench/main.exe                -- every default artifact
     dune exec bench/main.exe -- table1      -- one artifact
     dune exec bench/main.exe -- table2 fig1 -- a selection

   Artifacts: table1 table2 table3 fig1 fig7 fig9 ablation1 ablation2
              ablation3 ablation4 ablation5 scaling scalrep interp serve
              json (the default sweep), and the opt-in serve-storm,
              gate and drift.

   Every timed number goes through one rule (Rounds.interleave): one
   warm-up run of each subject, then [rounds] interleaved rounds, each
   number reported as its median with the interquartile range, and a
   comparison as the median of the per-round ratios.

   "interp" times the four execution engines (tree, flat, reg, fused)
   on the pipeline's two dynamic runs per workload: the decode or
   bytecode-compile vs execute split of each run, minor-heap
   allocation, executed instructions per second, and each engine's
   execute-time speedup over the tree-walker, paired round by round.

   "serve" runs the compile daemon over the in-process loopback
   transport: a cold round (all cache misses) against a warm round of
   concurrent clients (all hits), reporting mean/p50/p99 latency,
   request rate and hit ratios, plus the cold latency of one gen480
   request (the largest single compile the suite exercises).

   "serve-storm" pushes a mixed request storm (100k by default; a bare
   number sets the count) through the event-driven daemon, then times
   the warm throughput of 64 pipelined connections.

   "scaling" times the compile-only pipeline (Pipeline.optimise)
   serially and on 2 and 4 domains, per workload, with the speedup.

   "gate" (used by CI) runs the regression checks: a table of rows,
   each a median (or median paired ratio) over interleaved rounds
   against a fixed bound; bare row names select rows.  "drift" (used
   by CI) compares every deterministic count of each workload (static,
   dynamic, promotion, pressure) with the committed
   BENCH_promotion.json and fails on any difference.  Both read the
   committed artifact, so they must run before "json" rewrites it.

   "json" writes BENCH_promotion.json: the Tables 1-3 data per
   workload plus the sections the timed artifacts of the same
   invocation filled (schema in DESIGN.md).

   Absolute numbers necessarily differ from the paper (the workloads
   are synthetic SPECInt95 stand-ins and the "hardware" is an
   interpreter); EXPERIMENTS.md records the paper-vs-measured
   comparison and the shape checks. *)

module P = Rp_core.Pipeline
module I = Rp_interp.Interp
module R = Rp_workloads.Registry
module A = Rp_bench.Artifact
module Rounds = Rp_bench.Rounds
open Rp_ir

(* the interleaved rounds behind every timed number *)
let rounds = 5

let impro before after =
  if before = 0 then 0.0
  else float_of_int (before - after) /. float_of_int before *. 100.0

(* Paper values for side-by-side display: (name, static loads impro,
   static stores impro, dynamic loads impro, dynamic stores impro). *)
let paper_numbers =
  [
    ("go", -14.3, 2.5, 25.5, 2.5);
    ("li", -3.6, -4.2, 16.5, 9.6);
    ("ijpeg", -5.8, 2.9, 25.7, 0.1);
    ("perl", -5.6, -0.3, 8.0, 1.2);
    ("m88k", -0.8, 4.7, 13.1, 4.7);
    ("sc", -11.3, 7.3, 4.9, 0.9);
    ("compr", 1.0, 1.4, 0.2, 0.8);
    ("vortex", -5.0, 0.9, -0.4, 0.9);
  ]

(* The stencil/DSP family (blur/dot/lpc) postdates the paper, so it has
   no Table 1/2 column; lookups are optional and the printers show a
   blank. *)
let paper_numbers_for name =
  List.find_opt (fun (n, _, _, _, _) -> n = name) paper_numbers

let reports : (string, P.report) Hashtbl.t = Hashtbl.create 8

let report_for (w : R.workload) : P.report =
  match Hashtbl.find_opt reports w.R.name with
  | Some r -> r
  | None ->
      let r =
        P.run ~options:{ P.default_options with fuel = 80_000_000 } w.R.source
      in
      if not r.P.behaviour_ok then
        failwith (w.R.name ^ ": promotion changed behaviour!");
      Hashtbl.replace reports w.R.name r;
      r

let rule () = print_endline (String.make 78 '-')

(* ------------------------------------------------------------------ *)
(* Table 1: static counts of memory operations *)

let table1 () =
  rule ();
  print_endline
    "Table 1: effect of register promotion on STATIC counts of memory ops";
  print_endline
    "(percentages are improvements; negative = more instructions, which is";
  print_endline " the paper's dominant outcome for static counts)";
  rule ();
  Printf.printf "%-8s %21s %22s %14s\n" "" "static loads" "static stores"
    "paper (ld/st)";
  Printf.printf "%-8s %6s %6s %7s %6s %6s %7s\n" "bench" "before" "after"
    "impro%" "before" "after" "impro%";
  List.iter
    (fun (w : R.workload) ->
      let r = report_for w in
      let sb = r.P.static_before and sa = r.P.static_after in
      let paper =
        match paper_numbers_for w.R.name with
        | Some (_, pl, ps, _, _) -> Printf.sprintf "%+5.1f/%+5.1f" pl ps
        | None -> "    --/--"
      in
      Printf.printf "%-8s %6d %6d %+6.1f%% %6d %6d %+6.1f%%  %s\n"
        w.R.name sb.Rp_core.Stats.loads sa.Rp_core.Stats.loads
        (impro sb.Rp_core.Stats.loads sa.Rp_core.Stats.loads)
        sb.Rp_core.Stats.stores sa.Rp_core.Stats.stores
        (impro sb.Rp_core.Stats.stores sa.Rp_core.Stats.stores)
        paper)
    R.all

(* ------------------------------------------------------------------ *)
(* Table 2: dynamic counts of memory operations *)

let table2 () =
  rule ();
  print_endline
    "Table 2: effect of register promotion on DYNAMIC counts of memory ops";
  print_endline " (paper: ~12% of scalar memory operations removed on average)";
  rule ();
  Printf.printf "%-8s %24s %24s %14s\n" "" "dynamic loads" "dynamic stores"
    "paper (ld/st)";
  Printf.printf "%-8s %8s %8s %6s %8s %8s %6s\n" "bench" "before" "after"
    "impro%" "before" "after" "impro%";
  let tb = ref 0 and ta = ref 0 in
  List.iter
    (fun (w : R.workload) ->
      let r = report_for w in
      let b = r.P.dynamic_before and a = r.P.dynamic_after in
      let paper =
        match paper_numbers_for w.R.name with
        | Some (_, _, _, pl, ps) -> Printf.sprintf "%+5.1f/%+5.1f" pl ps
        | None -> "    --/--"
      in
      tb := !tb + b.I.loads + b.I.stores;
      ta := !ta + a.I.loads + a.I.stores;
      Printf.printf "%-8s %8d %8d %+5.1f%% %8d %8d %+5.1f%%  %s\n"
        w.R.name b.I.loads a.I.loads
        (impro b.I.loads a.I.loads)
        b.I.stores a.I.stores
        (impro b.I.stores a.I.stores)
        paper)
    R.all;
  rule ();
  Printf.printf
    "total memory operations removed: %.1f%% (paper: ~12%% on SPECInt95)\n"
    (impro !tb !ta)

(* ------------------------------------------------------------------ *)
(* Table 3: register pressure *)

let table3 () =
  let module C = Rp_regalloc.Color in
  rule ();
  print_endline "Table 3: effect of register promotion on register pressure";
  print_endline
    " (colors needed for the interference graph, per routine; the paper";
  print_endline "  reports pressure increases on promoted routines; the data";
  print_endline "  is the pipeline report's schema-v4 \"pressure\" section)";
  rule ();
  Printf.printf "%-8s %-18s %15s %17s\n" "" "" "colors" "maxlive";
  Printf.printf "%-8s %-18s %7s %7s %8s %8s\n" "bench" "routine" "before"
    "after" "before" "after";
  List.iter
    (fun (w : R.workload) ->
      let r = report_for w in
      List.iter
        (fun (fp : P.func_pressure) ->
          let cb = fp.P.fp_before.C.s_colors
          and ca = fp.P.fp_after.C.s_colors in
          if cb <> ca then
            Printf.printf "%-8s %-18s %7d %7d %8d %8d\n" w.R.name fp.P.fp_name
              cb ca fp.P.fp_before.C.s_maxlive fp.P.fp_after.C.s_maxlive)
        r.P.pressure)
    R.all;
  print_endline "(routines whose pressure is unchanged are omitted)";
  (* extension: the concrete cost on a small register file — potential
     spills under Chaitin simplification with k registers *)
  print_endline "";
  print_endline
    "Table 3 extension: potential spills on a k-register machine (sum over";
  print_endline " routines), before -> after promotion";
  Printf.printf "%-8s %12s %12s %12s\n" "bench" "k=4" "k=6" "k=8";
  List.iter
    (fun (w : R.workload) ->
      let before_prog, _ = P.prepare w.R.source in
      let after_prog = (report_for w).P.prog in
      let total prog k =
        List.fold_left
          (fun acc (f : Func.t) ->
            acc
            + Option.value ~default:0 (C.analyse f ~k:(Some k)).C.s_spills)
          0 prog.Func.funcs
      in
      Printf.printf "%-8s %5d -> %3d %5d -> %3d %5d -> %3d\n" w.R.name
        (total before_prog 4) (total after_prog 4) (total before_prog 6)
        (total after_prog 6) (total before_prog 8) (total after_prog 8))
    R.all

(* ------------------------------------------------------------------ *)
(* Figure reproductions *)

let fig1 () =
  rule ();
  print_endline "Figure 1: the running example (x promoted in the hot loop)";
  rule ();
  let src =
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
  in
  let r = P.run src in
  Printf.printf "behaviour ok: %b   output: %s\n" r.P.behaviour_ok
    (String.concat "," (List.map string_of_int r.P.final.I.output));
  Printf.printf
    "loads %d -> %d, stores %d -> %d (paper: the first loop's 200 memory\n\
     operations become one preheader load and one tail store)\n"
    r.P.dynamic_before.I.loads r.P.dynamic_after.I.loads
    r.P.dynamic_before.I.stores r.P.dynamic_after.I.stores

let fig7 () =
  rule ();
  print_endline "Figures 7/8: partial promotion with a call on a cold path";
  rule ();
  let src =
    {|
int x = 0;
int c = 0;
void foo() { c++; }
int main() {
  int i;
  for (i = 0; i < 1000; i++) {
    x++;
    if (x < 30) { foo(); }
  }
  print(x); print(c);
  return 0;
}
|}
  in
  let r = P.run src in
  Printf.printf "behaviour ok: %b\n" r.P.behaviour_ok;
  Printf.printf "loads %d -> %d, stores %d -> %d\n" r.P.dynamic_before.I.loads
    r.P.dynamic_after.I.loads r.P.dynamic_before.I.stores
    r.P.dynamic_after.I.stores;
  print_endline
    "(the load and store of x now sit in the 29-iteration cold branch and\n\
     the loop boundary, not in the 1000-iteration hot body)"

let fig9 () =
  rule ();
  print_endline
    "Figures 9/10: incremental SSA update for two cloned definitions";
  rule ();
  let open Rp_ssa in
  let prog = Func.create_prog () in
  let x =
    Resource.add_var prog.Func.vartab ~name:"x" ~kind:Resource.Global ~init:0
  in
  let f = Func.create_func ~name:"example2" in
  Func.add_func prog f;
  let cond = Func.fresh_reg f in
  f.Func.params <- [ cond ];
  let b = Array.init 8 (fun _ -> Func.add_block f) in
  f.Func.entry <- b.(0).Block.bid;
  let jmp i j = b.(i).Block.term <- Block.Jmp b.(j).Block.bid in
  let br i j k =
    b.(i).Block.term <-
      Block.Br
        { cond = Instr.Reg cond; t = b.(j).Block.bid; f = b.(k).Block.bid }
  in
  jmp 0 1;
  br 1 2 3;
  br 2 4 5;
  jmp 3 5;
  jmp 4 6;
  jmp 5 6;
  br 6 1 7;
  b.(7).Block.term <- Block.Ret None;
  Hashtbl.replace f.Func.mver x 1;
  let x1 = { Resource.base = x; ver = 1 } in
  Block.insert_at_end b.(1)
    (Func.mk_instr f (Instr.Store { dst = x1; src = Imm 7 }));
  let mk_load () =
    Func.mk_instr f (Instr.Load { dst = Func.fresh_reg f; src = x1 })
  in
  let u3 = mk_load () and u4 = mk_load () and u5 = mk_load () in
  Block.insert_at_end b.(3) u3;
  Block.insert_at_end b.(4) u4;
  Block.insert_at_end b.(5) u5;
  Cfg.recompute_preds f;
  let clone2 = Func.fresh_ver f x and clone3 = Func.fresh_ver f x in
  Block.insert_at_start b.(2)
    (Func.mk_instr f (Instr.Store { dst = clone2; src = Imm 7 }));
  Block.insert_before b.(3) ~iid:u3.Instr.iid
    (Func.mk_instr f (Instr.Store { dst = clone3; src = Imm 7 }));
  Incremental.update_for_cloned_resources f
    ~cloned_res:(Resource.ResSet.of_list [ clone2; clone3 ]);
  Verify.assert_ok prog.Func.vartab f;
  let phis_at bid = Iseq.length (Func.block f bid).Block.phis in
  Printf.printf
    "after the update: phi at b5: %d (expected 1), phis at b1/b6: %d/%d\n\
     (expected 0/0 -- the paper's dead phis are deleted), original store\n\
     in b1 removed: %b\n"
    (phis_at 5) (phis_at 1) (phis_at 6)
    (Iseq.is_empty (Func.block f 1).Block.body)

(* ------------------------------------------------------------------ *)
(* Ablation 1: profile-driven SSA promotion vs the loop-based baseline *)

let ablation1 () =
  rule ();
  print_endline
    "Ablation A1: paper's algorithm vs Lu-Cooper-style loop-based baseline";
  print_endline
    " (the baseline refuses any variable with an aliased reference in the";
  print_endline "  loop; no profile, no partial promotion)";
  rule ();
  Printf.printf "%-8s %10s %12s %12s %14s\n" "bench" "unpromoted" "baseline"
    "paper" "paper wins by";
  List.iter
    (fun (w : R.workload) ->
      let full = report_for w in
      let prog, trees = P.prepare w.R.source in
      let before = I.run ~fuel:80_000_000 prog in
      I.apply_profile prog before;
      ignore (Rp_baselines.Loop_promotion.promote_prog prog trees);
      Rp_opt.Cleanup.run_prog prog;
      let base = I.run ~fuel:80_000_000 prog in
      let u = before.I.counters.I.loads + before.I.counters.I.stores in
      let b = base.I.counters.I.loads + base.I.counters.I.stores in
      let p = full.P.dynamic_after.I.loads + full.P.dynamic_after.I.stores in
      Printf.printf "%-8s %10d %12d %12d %+13.1f%%\n" w.R.name u b p
        (impro b p))
    R.all;
  print_endline
    "(columns are dynamic loads+stores; 'paper wins by' is the further";
  print_endline " reduction the profile-driven algorithm achieves)"

(* ------------------------------------------------------------------ *)
(* Ablation 2: incremental SSA update strategies *)

(* A synthetic function with [k] sequential loops, each loading and
   storing a global; after SSA, clone a store into every loop body and
   measure the repair strategies. *)
let update_workbench k =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "int x = 0;\nint main() {\n  int i;\n";
  for j = 0 to k - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  for (i = 0; i < 4; i++) { x = x + %d; }\n" (j + 1))
  done;
  Buffer.add_string buf "  print(x);\n  return 0;\n}\n";
  Buffer.contents buf

let prepare_update_problem k =
  let prog, _ = P.prepare (update_workbench k) in
  let f = Option.get (Func.find_func prog "main") in
  (* clone a store of x at the end of every block containing a load *)
  let clones = ref Resource.ResSet.empty in
  Func.iter_blocks
    (fun b ->
      if
        Iseq.exists
          (fun (i : Instr.t) ->
            match i.Instr.op with Instr.Load _ -> true | _ -> false)
          b.Block.body
      then begin
        let c = Func.fresh_ver f 0 in
        Block.insert_at_end b
          (Func.mk_instr f (Instr.Store { dst = c; src = Imm 1 }));
        clones := Resource.ResSet.add c !clones
      end)
    f;
  (prog, f, !clones)


let ablation2 () =
  rule ();
  print_endline "Ablation A2: incremental SSA update strategies (compile time)";
  print_endline
    " batch      = the paper's algorithm, one IDF for all m cloned defs";
  print_endline
    " batch (SG) = same, with the Sreedhar-Gao linear-time IDF [SrG95]";
  print_endline
    " per-def    = CSS96-style baseline, one IDF per cloned def (O(m*n))";
  print_endline
    " rebuild    = reference point: constructing SSA from scratch";
  Printf.printf " (median of %d interleaved rounds, each on a fresh problem)\n"
    rounds;
  rule ();
  let ename = Rp_ssa.Incremental.engine_to_string in
  Printf.printf "%8s %8s %12s %12s %12s %12s\n" "loops" "clones"
    (ename Rp_ssa.Incremental.Cytron)
    (ename Rp_ssa.Incremental.Sreedhar_gao)
    "per-def" "rebuild";
  List.iter
    (fun k ->
      let m = ref 0 in
      let update repair () =
        let _, f, clones = prepare_update_problem k in
        m := Resource.ResSet.cardinal clones;
        [ ("ms", Rounds.wall_ms (fun () -> repair f clones)) ]
      in
      let rebuild () =
        (* reference: the cost of building SSA for the function from
           scratch (what a compiler without an incremental updater
           would pay after the transformation) *)
        let prog = Rp_minic.Lower.compile (update_workbench k) in
        let f = Option.get (Func.find_func prog "main") in
        ignore (Rp_analysis.Intervals.normalise f);
        [ ("ms", Rounds.wall_ms (fun () -> Rp_ssa.Construct.run f)) ]
      in
      let runs =
        Rounds.interleave ~rounds
          [
            update (fun f cloned_res ->
                Rp_ssa.Incremental.update_for_cloned_resources f ~cloned_res);
            update (fun f cloned_res ->
                Rp_ssa.Incremental.update_for_cloned_resources
                  ~engine:Rp_ssa.Incremental.Sreedhar_gao f ~cloned_res);
            update (fun f cloned_res ->
                Rp_ssa.Per_def_update.update_one_at_a_time f ~cloned_res);
            rebuild;
          ]
      in
      Printf.printf "%8d %8d" k !m;
      List.iter
        (fun r ->
          Printf.printf " %9.3f ms" (Rounds.summary r "ms").Rounds.median)
        runs;
      print_newline ())
    [ 10; 40; 160; 400 ]

(* ------------------------------------------------------------------ *)
(* Ablation 3: what does promotion add over the other SSA memory
   optimizations (GVN over same-version loads + dead store
   elimination), and what do they add on top of promotion? *)

let run_variant (w : R.workload) ~gvn_dse ~promote =
  let prog, trees = P.prepare w.R.source in
  let before = I.run ~fuel:80_000_000 prog in
  I.apply_profile prog before;
  if promote then
    List.iter
      (fun (f : Func.t) ->
        match List.assoc_opt f.Func.fname trees with
        | Some tree ->
            ignore (Rp_core.Promote.promote_function f prog.Func.vartab tree)
        | None -> ())
      prog.Func.funcs;
  if gvn_dse then begin
    List.iter (fun f -> ignore (Rp_opt.Gvn.run f)) prog.Func.funcs;
    ignore (Rp_opt.Dse.run_prog prog)
  end;
  Rp_opt.Cleanup.run_prog prog;
  let after = I.run ~fuel:80_000_000 prog in
  if not (I.same_behaviour before after) then
    failwith (w.R.name ^ ": variant changed behaviour!");
  after.I.counters.I.loads + after.I.counters.I.stores

let ablation3 () =
  rule ();
  print_endline
    "Ablation A3: promotion vs the other SSA memory optimizations";
  print_endline
    " gvn+dse  = value-number same-version loads + delete dead stores";
  print_endline
    " promo    = the paper's register promotion";
  rule ();
  Printf.printf "%-8s %10s %10s %10s %12s\n" "bench" "none" "gvn+dse" "promo"
    "promo+gvn+dse";
  List.iter
    (fun (w : R.workload) ->
      let none = run_variant w ~gvn_dse:false ~promote:false in
      let gd = run_variant w ~gvn_dse:true ~promote:false in
      let pr = run_variant w ~gvn_dse:false ~promote:true in
      let both = run_variant w ~gvn_dse:true ~promote:true in
      Printf.printf "%-8s %10d %10d %10d %12d\n" w.R.name none gd pr both)
    R.all;
  print_endline
    "(dynamic loads+stores; GVN catches same-version load reuse within";
  print_endline
    " dominating straight-line regions, promotion also carries values";
  print_endline " around loop back edges and across cold calls)"

(* ------------------------------------------------------------------ *)
(* Ablation 4: how much does the profile matter?  The paper's algorithm
   is "profile-driven"; rerun it with the static loop-depth estimate
   instead of the measured profile. *)

let ablation4 () =
  rule ();
  print_endline
    "Ablation A4: measured profile vs static loop-depth estimate";
  print_endline
    " (the paper's algorithm is profile-driven; the static estimate can";
  print_endline
    "  misjudge which call paths are cold and promote less or worse)";
  rule ();
  Printf.printf "%-8s %12s %14s %14s\n" "bench" "unpromoted"
    "static-profile" "measured";
  List.iter
    (fun (w : R.workload) ->
      let measured = report_for w in
      let static =
        P.run
          ~options:
            {
              P.default_options with
              profile = P.Static_estimate;
              fuel = 80_000_000;
            }
          w.R.source
      in
      if not static.P.behaviour_ok then
        failwith (w.R.name ^ ": static-profile variant changed behaviour!");
      let u =
        measured.P.dynamic_before.I.loads + measured.P.dynamic_before.I.stores
      in
      let st = static.P.dynamic_after.I.loads + static.P.dynamic_after.I.stores in
      let m =
        measured.P.dynamic_after.I.loads + measured.P.dynamic_after.I.stores
      in
      Printf.printf "%-8s %12d %14d %14d\n" w.R.name u st m)
    R.all;
  print_endline "(dynamic loads+stores after promotion under each profile)"

(* ------------------------------------------------------------------ *)
(* Ablation 5: profile robustness — profile on a smaller "training"
   input, promote, measure on the full input (classic PGO train/ref
   methodology).  The training program differs from the full one in a
   single loop-bound immediate, so every block id lines up and the
   training profile can be applied directly. *)

let ablation5 () =
  rule ();
  print_endline
    "Ablation A5: profile on a 1/4-size training input, measure on the";
  print_endline " full input (PGO train/ref robustness)";
  rule ();
  Printf.printf "%-8s %12s %14s %14s\n" "bench" "unpromoted"
    "train-profile" "ref-profile";
  List.iter
    (fun (w : R.workload) ->
      let full = report_for w in
      (* compile the full program, but profile it with counts measured
         on the 1/4-size training run *)
      let prog, trees = P.prepare w.R.source in
      let train_prog, _ = P.prepare (R.train_source w ~factor:4) in
      let train_run = I.run ~fuel:80_000_000 train_prog in
      I.apply_profile prog train_run;
      List.iter
        (fun (f : Func.t) ->
          match List.assoc_opt f.Func.fname trees with
          | Some tree ->
              ignore (Rp_core.Promote.promote_function f prog.Func.vartab tree)
          | None -> ())
        prog.Func.funcs;
      Rp_opt.Cleanup.run_prog prog;
      let after = I.run ~fuel:80_000_000 prog in
      if not (I.same_behaviour full.P.baseline after) then
        failwith (w.R.name ^ ": train-profiled variant changed behaviour!");
      let u = full.P.dynamic_before.I.loads + full.P.dynamic_before.I.stores in
      let t = after.I.counters.I.loads + after.I.counters.I.stores in
      let r = full.P.dynamic_after.I.loads + full.P.dynamic_after.I.stores in
      Printf.printf "%-8s %12d %14d %14d\n" w.R.name u t r)
    R.all;
  print_endline
    "(dynamic loads+stores on the full input; a small training run is";
  print_endline " normally enough — relative hot/cold ratios are input-stable)"


(* ------------------------------------------------------------------ *)
(* Scaling: the compile-only pipeline, serial vs parallel.  The
   interpreter runs are excluded on purpose — they are the correctness
   oracle and stay serial — so this times exactly the work that fans
   out over the domain pool. *)

let scaling () =
  rule ();
  print_endline
    "Scaling: compile-only pipeline (Pipeline.optimise), serial vs parallel";
  Printf.printf " (this host recommends %d domain(s); speedups need cores)\n"
    (Domain.recommended_domain_count ());
  Printf.printf
    " (median of %d interleaved rounds; speedup = median paired ratio)\n"
    rounds;
  rule ();
  Printf.printf "%-8s %12s %12s %12s %10s\n" "bench" "jobs=1" "jobs=2"
    "jobs=4" "speedup@4";
  let log_sum = ref 0.0 in
  List.iter
    (fun (w : R.workload) ->
      let subject jobs () =
        let options = { P.default_options with jobs } in
        [
          ( "ms",
            Rounds.wall_ms (fun () -> ignore (P.optimise ~options w.R.source)) );
        ]
      in
      match Rounds.interleave ~rounds (List.map subject [ 1; 2; 4 ]) with
      | [ j1; j2; j4 ] ->
          let ms r = (Rounds.summary r "ms").Rounds.median in
          let s = (Rounds.ratio j1 j4 "ms").Rounds.median in
          log_sum := !log_sum +. log s;
          Printf.printf "%-8s %9.3f ms %9.3f ms %9.3f ms %9.2fx\n" w.R.name
            (ms j1) (ms j2) (ms j4) s
      | _ -> assert false)
    R.all;
  rule ();
  Printf.printf "geometric-mean speedup, jobs=4 over jobs=1: %.2fx\n"
    (exp (!log_sum /. float_of_int (List.length R.all)))

(* ------------------------------------------------------------------ *)
(* Interp: the four execution engines on the pipeline's two dynamic
   runs (profile and measure) at fuel 80M, interleaved round by round.
   Per workload and engine: the decode (flat) or bytecode-compile (reg,
   fused) vs execute split inside each run, the minor-heap allocation
   of each run, executed instructions per second over the execute
   time, and the execute-time speedup over the tree-walker.  Execute
   time is the comparison on purpose: the engines front-load different
   work (flat decodes; reg compiles — out-of-SSA, coalescing, coloring,
   emission), so wall-clock totals measure the front-load, not the
   engine. *)

let engines = [ P.Tree; P.Flat; P.Reg; P.Fused ]

type interp_result = {
  i_name : string;
  i_instrs : int;  (** executed instructions, profile + measure *)
  i_fused_ops : int;  (** superinstructions emitted (cbr + bin2) *)
  i_ops_eliminated : int;  (** copies folded away / dead, consts folded *)
  i_runs : (P.interp_engine * Rounds.runs) list;  (** in [engines] order *)
}

let interp_results : interp_result list ref = ref []

let interp_one (w : R.workload) : interp_result =
  let instrs = ref 0 and fused_ops = ref 0 and ops_eliminated = ref 0 in
  let subject interp () =
    let r =
      P.run ~options:{ P.default_options with fuel = 80_000_000; interp }
        w.R.source
    in
    if not r.P.behaviour_ok then
      failwith (w.R.name ^ ": promotion changed behaviour!");
    let t k = try List.assoc k r.P.timing with Not_found -> 0.0 in
    instrs := r.P.baseline.I.counters.I.instrs + r.P.final.I.counters.I.instrs;
    if interp = P.Fused then begin
      fused_ops := int_of_float (t "fused_ops");
      ops_eliminated := int_of_float (t "ops_eliminated")
    end;
    let exec_ms = t "profile_exec_ms" +. t "measure_exec_ms" in
    List.map
      (fun k -> (k, t k))
      [
        "profile_ms"; "profile_decode_ms"; "profile_exec_ms"; "measure_ms";
        "measure_decode_ms"; "measure_exec_ms";
      ]
    @ [
        ("profile_measure_ms", t "profile_ms" +. t "measure_ms");
        ("exec_ms", exec_ms);
        ("profile_minor_mwords", t "profile_minor_words" /. 1e6);
        ("measure_minor_mwords", t "measure_minor_words" /. 1e6);
        ("instrs_per_sec", float_of_int !instrs /. (exec_ms /. 1000.0));
      ]
  in
  let runs = Rounds.interleave ~rounds (List.map subject engines) in
  {
    i_name = w.R.name;
    i_instrs = !instrs;
    i_fused_ops = !fused_ops;
    i_ops_eliminated = !ops_eliminated;
    i_runs = List.combine engines runs;
  }

let interp () =
  rule ();
  print_endline
    "Interp: the four engines on the pipeline's profile + measure runs";
  Printf.printf
    " (median of %d interleaved rounds; prep = decode or bytecode compile;\n"
    rounds;
  print_endline
    "  vs tree = median paired ratio of execute times; fused/elim = the";
  print_endline "  superinstructions emitted and the ops folded away)";
  rule ();
  Printf.printf "%-8s %-6s %16s %16s %15s %10s %9s %8s\n" "bench" "engine"
    "profile prep+ex" "measure prep+ex" "exec ms (IQR)" "alloc" "Minstr/s"
    "vs tree";
  let rs =
    List.map interp_one (R.all @ [ R.generated 240; R.generated 480 ])
  in
  List.iter
    (fun i ->
      let tree = List.assoc P.Tree i.i_runs in
      List.iter
        (fun (e, runs) ->
          let m k = (Rounds.summary runs k).Rounds.median in
          let exec = Rounds.summary runs "exec_ms" in
          Printf.printf
            "%-8s %-6s %6.2f+%8.2f %6.2f+%8.2f %8.2f (%4.2f) %7.3f Mw %9.1f \
             %7.2fx%s\n"
            i.i_name (P.interp_engine_to_string e) (m "profile_decode_ms")
            (m "profile_exec_ms") (m "measure_decode_ms") (m "measure_exec_ms")
            exec.Rounds.median exec.Rounds.iqr
            (m "profile_minor_mwords" +. m "measure_minor_mwords")
            (m "instrs_per_sec" /. 1e6)
            (Rounds.ratio tree runs "exec_ms").Rounds.median
            (if e = P.Fused then
               Printf.sprintf "  fused/elim %d/%d" i.i_fused_ops
                 i.i_ops_eliminated
             else ""))
        i.i_runs)
    rs;
  interp_results := rs

(* ------------------------------------------------------------------ *)
(* Serve: throughput of the compile daemon over the loopback transport.
   Each round starts a fresh daemon and plays a cold round (every seed
   workload once, all cache misses) against a warm round (concurrent
   clients replaying the same requests, all cache hits) — the cache is
   the daemon's whole performance story, so the artifact records both
   rounds' latency distributions, the warm round's request rate and
   both hit ratios, each over the rounds. *)

let serve_clients = 4

let serve_results : Rounds.runs option ref = ref None

(* the one request-corpus builder shared by "serve" and "serve-storm":
   every benched compile request goes through here *)
let compile_request ?deadline_s ?(trace = true) ?(fuel = 80_000_000) target =
  let module Proto = Rp_serve.Protocol in
  {
    Proto.target;
    options = { P.default_options with P.fuel; trace };
    deterministic = true;
    deadline_s;
  }

let serve_round () =
  let module Mux = Rp_serve.Mux in
  let module Client = Rp_serve.Client in
  let module Proto = Rp_serve.Protocol in
  let mx =
    Mux.create
      ~config:{ Mux.default_config with Mux.max_inflight = serve_clients * 2 }
      ()
  in
  Mux.start mx;
  Fun.protect ~finally:(fun () -> Mux.stop mx) @@ fun () ->
  let corpus =
    List.map
      (fun (w : R.workload) -> compile_request (`Workload w.R.name))
      R.all
  in
  let timed_compile c req =
    let t0 = Unix.gettimeofday () in
    (match Client.compile c req with
    | Proto.Report _ -> ()
    | Proto.Error { message; _ } -> failwith ("serve bench: " ^ message)
    | _ -> failwith "serve bench: unexpected reply");
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let hit_ratio (before : Rp_serve.Cache.stats) (after : Rp_serve.Cache.stats)
      =
    let h = after.Rp_serve.Cache.hits - before.Rp_serve.Cache.hits in
    let m = after.Rp_serve.Cache.misses - before.Rp_serve.Cache.misses in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  (* cold round: one client, every seed workload once, then one gen480
     request timed on its own (it would dominate the seed p99) *)
  let s0 = Rp_serve.Cache.stats (Mux.cache mx) in
  let cold, cold_gen480 =
    let c = Client.of_conn (Mux.loopback mx) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let seeds = List.map (timed_compile c) corpus in
    let g =
      timed_compile c (compile_request (`Workload (R.generated 480).R.name))
    in
    (Array.of_list seeds, g)
  in
  let s1 = Rp_serve.Cache.stats (Mux.cache mx) in
  (* warm round: [serve_clients] threads, each replaying the full list *)
  let warm_t0 = Unix.gettimeofday () in
  let warm =
    let results = Array.make serve_clients [] in
    let threads =
      List.init serve_clients (fun i ->
          Thread.create
            (fun () ->
              let c = Client.of_conn (Mux.loopback mx) in
              Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
              results.(i) <- List.map (timed_compile c) corpus)
            ())
    in
    List.iter Thread.join threads;
    Array.of_list (List.concat (Array.to_list results))
  in
  let warm_s = Unix.gettimeofday () -. warm_t0 in
  let s2 = Rp_serve.Cache.stats (Mux.cache mx) in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  [
    ("cold_mean_ms", mean cold);
    ("cold_p50_ms", Rounds.percentile cold 0.50);
    ("cold_p99_ms", Rounds.percentile cold 0.99);
    ("cold_hit_ratio", hit_ratio s0 s1);
    ("cold_gen480_ms", cold_gen480);
    ("warm_mean_ms", mean warm);
    ("warm_p50_ms", Rounds.percentile warm 0.50);
    ("warm_p99_ms", Rounds.percentile warm 0.99);
    ("warm_req_per_s", float_of_int (Array.length warm) /. warm_s);
    ("warm_hit_ratio", hit_ratio s1 s2);
    ("warm_speedup", mean cold /. mean warm);
  ]

let serve () =
  rule ();
  print_endline
    "Serve: compile daemon over the in-process loopback transport";
  print_endline
    " (cold round = every workload once, misses; warm round = 4 concurrent";
  Printf.printf
    "  clients replaying the same requests, hits; a fresh daemon per round,\n\
    \  median of %d interleaved rounds)\n"
    rounds;
  rule ();
  let r = List.hd (Rounds.interleave ~rounds [ serve_round ]) in
  serve_results := Some r;
  let m k = (Rounds.summary r k).Rounds.median in
  Printf.printf "%-6s %5s %12s %12s %12s %10s %6s\n" "round" "reqs" "mean"
    "p50" "p99" "req/s" "hits";
  Printf.printf "%-6s %5d %9.3f ms %9.3f ms %9.3f ms %10s %5.0f%%\n" "cold"
    (List.length R.all) (m "cold_mean_ms") (m "cold_p50_ms") (m "cold_p99_ms")
    "-"
    (m "cold_hit_ratio" *. 100.);
  Printf.printf "%-6s %5d %9.3f ms %9.3f ms %9.3f ms %10.1f %5.0f%%\n" "warm"
    (serve_clients * List.length R.all)
    (m "warm_mean_ms") (m "warm_p50_ms") (m "warm_p99_ms") (m "warm_req_per_s")
    (m "warm_hit_ratio" *. 100.);
  Printf.printf "warm-over-cold mean speedup: %.1fx\n" (m "warm_speedup");
  Printf.printf
    "cold gen480 request: %.3f ms (miss; excluded from the rows above)\n"
    (m "cold_gen480_ms")

(* ------------------------------------------------------------------ *)
(* Serve-storm: production-shaped traffic against the event-driven mux
   daemon.  A ~100k-request mix — repeated warm sources, a unique cold
   tail, duplicate bursts (single-flight dedup), oversized frames
   (stream poisoning + reconnect) and sub-millisecond deadlines — is
   shuffled deterministically and driven over 64 pipelined connections.
   The summary records the latency distribution over the requests,
   outcome counts and the cache-hit ratio per completion-time decile;
   then the warm throughput of 64 pipelined connections against a
   prewarmed cache is timed over interleaved rounds. *)

type storm_outcome = O_report | O_cached | O_timeout | O_busy | O_protocol | O_other

type storm_summary = {
  st_reqs : int;
  st_latency : Rounds.spread;  (** over the storm's requests *)
  st_p99_ms : float;
  st_reports : int;
  st_cached : int;
  st_timeouts : int;
  st_busy : int;
  st_protocol_errors : int;
  st_other : int;
  st_dedup_joins : int;
  st_hit_curve : float array;
      (** cached share of report-class responses per completion-time
          decile — the warming trajectory of the cache under load *)
  st_warm64 : Rounds.runs;
}

let storm_results : storm_summary option ref = ref None

let storm_conns = 64

let storm_window = 16

(* requests per connection in one warm64 round *)
let warm64_per_conn = 100

(* a tiny distinct MiniC program per index: a global accumulator kept
   live across a call inside a loop, so promotion has real work, with
   index-dependent constants so every variant owns a distinct cache key *)
let tiny_source i =
  Printf.sprintf
    "int acc;\n\
     int step(int a, int b) { int t; t = a * b + %d; acc = acc + t; return t; }\n\
     int main() { int i; int s = 0;\n\
    \  for (i = 0; i < 48; i++) { s = s + step(i, %d); }\n\
    \  print(s + acc); return 0; }\n"
    i
    ((i mod 7) + 1)

(* deterministic Fisher-Yates over a seeded LCG: the storm's request
   interleaving is reproducible run to run *)
let shuffle seed a =
  let state = ref (seed land 0x3FFFFFFF) in
  let rand n =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod n
  in
  for i = Array.length a - 1 downto 1 do
    let j = rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let classify_response payload =
  let has sub = contains_sub payload sub in
  if has "\"resp\":\"report\"" then
    if has "\"cached\":true" then O_cached else O_report
  else if has "\"kind\":\"timeout\"" then O_timeout
  else if has "\"kind\":\"busy\"" then O_busy
  else if has "\"kind\":\"protocol_error\"" then O_protocol
  else O_other

type storm_item =
  | Req of string * string  (** class label, pre-serialised request payload *)
  | Overs  (** an oversized length prefix: protocol error, then EOF *)

(* Wrap a conn with a read buffer and a write accumulator (flushed
   before every buffer refill, so a blocking read never strands queued
   requests): the client harness then costs ~1 syscall per pipelined
   burst instead of ~4 per request, so the numbers measure the daemon
   rather than the harness. *)
let buffered_conn (c : Rp_serve.Protocol.conn) : Rp_serve.Protocol.conn =
  let module Proto = Rp_serve.Protocol in
  let rbuf = Bytes.create 65536 in
  let rlen = ref 0 and rpos = ref 0 in
  let wbuf = Buffer.create 65536 in
  let flush () =
    if Buffer.length wbuf > 0 then begin
      let s = Buffer.to_bytes wbuf in
      Buffer.clear wbuf;
      c.Proto.output s 0 (Bytes.length s)
    end
  in
  let input b off want =
    if !rpos >= !rlen then begin
      flush ();
      rlen := c.Proto.input rbuf 0 (Bytes.length rbuf);
      rpos := 0
    end;
    if !rlen = 0 then 0
    else begin
      let n = min want (!rlen - !rpos) in
      Bytes.blit rbuf !rpos b off n;
      rpos := !rpos + n;
      n
    end
  in
  let output b off len =
    Buffer.add_subbytes wbuf b off len;
    if Buffer.length wbuf >= 32768 then flush ()
  in
  {
    Proto.input;
    output;
    close =
      (fun () ->
        (try flush () with _ -> ());
        c.Proto.close ());
  }

(* Drive one connection through [items], keeping up to [window]
   requests on the wire and matching responses strictly in order (the
   mux's per-connection ordering guarantee).  Oversized probes go out
   only on an empty window: the daemon answers, poisons the stream and
   closes, so the driver reads the error, sees EOF and reconnects. *)
let drive_conn ~connect ~items ~record ~window =
  let module Proto = Rp_serve.Protocol in
  let connect () = buffered_conn (connect ()) in
  let conn = ref (connect ()) in
  let outstanding : (string * float) Queue.t = Queue.create () in
  let recv_one () =
    match Proto.read_frame !conn with
    | Proto.Frame payload ->
        let cls, t0 = Queue.pop outstanding in
        record cls payload ((Unix.gettimeofday () -. t0) *. 1000.0)
    | Proto.Eof | Proto.Bad _ -> failwith "storm: connection died mid-stream"
  in
  let drain () =
    while not (Queue.is_empty outstanding) do
      recv_one ()
    done
  in
  List.iter
    (fun item ->
      match item with
      | Req (cls, payload) ->
          if Queue.length outstanding >= window then recv_one ();
          Queue.push (cls, Unix.gettimeofday ()) outstanding;
          Proto.write_frame !conn payload
      | Overs ->
          drain ();
          let t0 = Unix.gettimeofday () in
          let hdr = Bytes.create 4 in
          Bytes.set_int32_be hdr 0 (Int32.of_int (Proto.max_frame + 1));
          (!conn).Proto.output hdr 0 4;
          (match Proto.read_frame !conn with
          | Proto.Frame payload ->
              record "oversized" payload
                ((Unix.gettimeofday () -. t0) *. 1000.0)
          | Proto.Eof | Proto.Bad _ ->
              failwith "storm: no reply to the oversized frame");
          (match Proto.read_frame !conn with
          | Proto.Eof -> ()
          | Proto.Frame _ | Proto.Bad _ ->
              failwith "storm: oversized frame did not poison the stream");
          (!conn).Proto.close ();
          conn := connect ())
    items;
  drain ();
  (!conn).Proto.close ()


let storm_payload req =
  let module Proto = Rp_serve.Protocol in
  Rp_obs.Json.to_string ~minify:true (Proto.request_to_json (Proto.Compile req))

let tiny_req i =
  compile_request ~trace:false ~fuel:10_000_000 (`Source (tiny_source i))

(* the 24 warm sources every connection replays *)
let warm_payloads = lazy (Array.init 24 (fun i -> storm_payload (tiny_req i)))

(* One warm64 round: a fresh daemon, every warm source once to fill its
   cache, then [storm_conns] connections each replaying
   [warm64_per_conn] warm requests with [storm_window] pipelining; all
   replies must be cache hits. *)
let warm64_round () =
  let module Mux = Rp_serve.Mux in
  let warm_payloads = Lazy.force warm_payloads in
  let m =
    Mux.create ~config:{ Mux.default_config with Mux.max_inflight = 128 } ()
  in
  Mux.start m;
  Fun.protect ~finally:(fun () -> Mux.stop m) @@ fun () ->
  let connect () = Mux.loopback m in
  drive_conn ~connect
    ~items:(Array.to_list (Array.map (fun p -> Req ("warm", p)) warm_payloads))
    ~record:(fun _ _ _ -> ())
    ~window:1;
  let items =
    List.init warm64_per_conn (fun i ->
        Req ("warm", warm_payloads.(i mod Array.length warm_payloads)))
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init storm_conns (fun _ ->
        Thread.create
          (fun () ->
            drive_conn ~connect ~items
              ~record:(fun _ payload _ ->
                match classify_response payload with
                | O_cached -> ()
                | _ -> failwith "storm warm64: expected a cached report")
              ~window:storm_window)
          ())
  in
  List.iter Thread.join threads;
  [
    ( "mux_req_per_s",
      float_of_int (storm_conns * warm64_per_conn)
      /. (Unix.gettimeofday () -. t0) );
  ]

let warm64 () = List.hd (Rounds.interleave ~rounds [ warm64_round ])

let serve_storm ?(n = 100_000) () =
  Gc.compact ();
  rule ();
  Printf.printf
    "Serve-storm: %d mixed requests against the event-driven mux daemon\n" n;
  print_endline
    " (64 pipelined connections; warm / cold / duplicate / oversized /";
  Printf.printf
    "  deadline classes; then warm 64-conn throughput, %d rounds)\n" rounds;
  rule ();
  let module Mux = Rp_serve.Mux in
  let module Proto = Rp_serve.Protocol in
  let module Client = Rp_serve.Client in
  (* the byte-identity oracle: a direct pipeline run, computed before
     any daemon owns the process-global obs state *)
  let oracle_w = List.hd R.all in
  let oracle_req = compile_request (`Workload oracle_w.R.name) in
  let oracle =
    let _, s =
      P.run_fresh_json ~label:oracle_w.R.name ~deterministic:true
        ~options:oracle_req.Rp_serve.Protocol.options oracle_w.R.source
    in
    s
  in
  (* the traffic mix *)
  let n_overs = 16 and n_dead = 16 and n_dup = 64 in
  let n_cold = min 512 (max 32 (n / 16)) in
  let n_warm = max 0 (n - n_cold - n_dup - n_overs - n_dead) in
  let warm_payloads = Lazy.force warm_payloads in
  let dead_payload =
    storm_payload
      (compile_request ~deadline_s:0.001 (`Workload (R.generated 60).R.name))
  in
  let items =
    Array.concat
      [
        Array.init n_warm (fun i ->
            Req ("warm", warm_payloads.(i mod Array.length warm_payloads)));
        Array.init n_cold (fun i -> Req ("cold", storm_payload (tiny_req (1000 + i))));
        Array.init n_dup (fun i -> Req ("dup", storm_payload (tiny_req (5000 + (i mod 8)))));
        Array.init n_dead (fun _ -> Req ("deadline", dead_payload));
        Array.init n_overs (fun _ -> Overs);
      ]
  in
  shuffle 0x5EED1 items;
  let parts = Array.make storm_conns [] in
  Array.iteri
    (fun i it -> parts.(i mod storm_conns) <- it :: parts.(i mod storm_conns))
    items;
  let parts = Array.map List.rev parts in
  (* the storm proper *)
  let mux =
    Mux.create
      ~config:{ Mux.default_config with Mux.max_inflight = 128 }
      ()
  in
  Mux.start mux;
  let records = Array.make storm_conns [] in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init storm_conns (fun i ->
        Thread.create
          (fun () ->
            let local = ref [] in
            drive_conn
              ~connect:(fun () -> Mux.loopback mux)
              ~items:parts.(i)
              ~record:(fun cls payload lat ->
                local :=
                  (Unix.gettimeofday (), lat, classify_response payload, cls)
                  :: !local)
              ~window:storm_window;
            records.(i) <- !local)
          ())
  in
  List.iter Thread.join threads;
  let duration = Unix.gettimeofday () -. t0 in
  (* byte identity through the storm-hammered daemon: a fresh miss and
     a cache hit must both return the oracle's exact bytes *)
  let oc = Client.of_conn (Mux.loopback mux) in
  (match Client.compile oc oracle_req with
  | Proto.Report { cached = false; report } when String.equal report oracle ->
      ()
  | Proto.Report { cached; report } ->
      failwith
        (Printf.sprintf
           "storm: fresh report diverged (cached=%b, %d vs %d oracle bytes)"
           cached (String.length report) (String.length oracle))
  | _ -> failwith "storm: fresh oracle request failed");
  (match Client.compile oc oracle_req with
  | Proto.Report { cached = true; report } when String.equal report oracle ->
      ()
  | _ -> failwith "storm: cached oracle reply not byte-identical");
  Client.close oc;
  let dedup_joins =
    match
      A.num (A.find (Mux.stats_doc mux) [ "serve"; "responses"; "dedup_joins" ])
    with
    | Some v -> int_of_float v
    | None -> 0
  in
  Mux.stop mux;
  let merged =
    Array.to_list records |> List.concat
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
  in
  let lats = Array.of_list (List.map (fun (_, l, _, _) -> l) merged) in
  let count o = List.length (List.filter (fun (_, _, x, _) -> x = o) merged) in
  let hit_curve =
    let total = List.length merged in
    let arr = Array.of_list merged in
    Array.init 10 (fun d ->
        let lo = d * total / 10 and hi = (d + 1) * total / 10 in
        let hits = ref 0 and reports = ref 0 in
        for i = lo to hi - 1 do
          let _, _, o, _ = arr.(i) in
          match o with
          | O_cached ->
              incr hits;
              incr reports
          | O_report -> incr reports
          | _ -> ()
        done;
        if !reports = 0 then 0.0 else float_of_int !hits /. float_of_int !reports)
  in
  (* per-class outcome table *)
  let classes = [ "warm"; "cold"; "dup"; "deadline"; "oversized" ] in
  Printf.printf "%-10s %8s %8s %8s %8s %8s %8s\n" "class" "reqs" "fresh"
    "cached" "timeout" "busy" "proto";
  List.iter
    (fun cls ->
      let rows = List.filter (fun (_, _, _, c) -> c = cls) merged in
      let c o = List.length (List.filter (fun (_, _, x, _) -> x = o) rows) in
      Printf.printf "%-10s %8d %8d %8d %8d %8d %8d\n" cls (List.length rows)
        (c O_report) (c O_cached) (c O_timeout) (c O_busy) (c O_protocol))
    classes;
  let latency = Rounds.spread lats and p99 = Rounds.percentile lats 0.99 in
  Printf.printf
    "storm: %d responses in %.2f s (%.0f req/s), latency median %.3f ms \
     (IQR %.3f), p99 %.3f ms, %d dedup joins\n"
    (List.length merged) duration
    (float_of_int (List.length merged) /. duration)
    latency.Rounds.median latency.Rounds.iqr p99 dedup_joins;
  Printf.printf "hit curve (cached share per completion decile): %s\n"
    (String.concat " "
       (Array.to_list (Array.map (Printf.sprintf "%.2f") hit_curve)));
  let warm = warm64 () in
  let rps = Rounds.summary warm "mux_req_per_s" in
  Printf.printf "warm64 (%d conns x %d reqs): mux %.0f req/s (IQR %.0f)\n"
    storm_conns warm64_per_conn rps.Rounds.median rps.Rounds.iqr;
  storm_results :=
    Some
      {
        st_reqs = List.length merged;
        st_latency = latency;
        st_p99_ms = p99;
        st_reports = count O_report;
        st_cached = count O_cached;
        st_timeouts = count O_timeout;
        st_busy = count O_busy;
        st_protocol_errors = count O_protocol;
        st_other = count O_other;
        st_dedup_joins = dedup_joins;
        st_hit_curve = hit_curve;
        st_warm64 = warm;
      }

(* ------------------------------------------------------------------ *)
(* The scalar-replacement measurement: the stencil/DSP family with
   --scalrep on vs off.  Unlike Tables 1/2 the interesting traffic is
   aliased (array elements), so the numbers below count loads +
   aliased_loads and stores + aliased_stores of the finished program. *)

let scalrep_family = [ "blur"; "dot"; "lpc" ]

let scalrep_on_reports : (string, P.report) Hashtbl.t = Hashtbl.create 4

let scalrep_on_report name =
  match Hashtbl.find_opt scalrep_on_reports name with
  | Some r -> r
  | None ->
      let w = Option.get (R.find name) in
      let r =
        P.run
          ~options:
            { P.default_options with fuel = 80_000_000; P.scalrep = true }
          w.R.source
      in
      if not r.P.behaviour_ok then
        failwith (name ^ ": scalrep changed behaviour!");
      Hashtbl.replace scalrep_on_reports name r;
      r

let total_loads (c : I.counters) = c.I.loads + c.I.aliased_loads
let total_stores (c : I.counters) = c.I.stores + c.I.aliased_stores

let scalrep_table () =
  rule ();
  print_endline
    "Scalar replacement: the stencil/DSP family with --scalrep off vs on";
  print_endline
    " (loads/stores include aliased array traffic; off = scalar-only";
  print_endline "  promotion, which cannot touch these workloads by design)";
  rule ();
  Printf.printf "%-8s %21s %21s %6s %6s\n" "" "loads (off -> on)"
    "stores (off -> on)" "ld cut" "st cut";
  List.iter
    (fun name ->
      let off = report_for (Option.get (R.find name)) in
      let on = scalrep_on_report name in
      let lb = total_loads off.P.dynamic_after
      and la = total_loads on.P.dynamic_after
      and sb = total_stores off.P.dynamic_after
      and sa = total_stores on.P.dynamic_after in
      let cut b a = if a = 0 then 0.0 else float_of_int b /. float_of_int a in
      Printf.printf "%-8s %10d %10d %10d %10d %5.1fx %5.1fx\n" name lb la sb
        sa (cut lb la) (cut sb sa))
    scalrep_family

(* ------------------------------------------------------------------ *)
(* JSON artifact: the per-workload data of Tables 1-3, machine
   readable — the file the repo's bench trajectory is built from, and
   the golden that "drift" holds fresh counts to. *)

let pressure_sums (r : P.report) : int * int =
  let module C = Rp_regalloc.Color in
  List.fold_left
    (fun (b, a) (fp : P.func_pressure) ->
      (b + fp.P.fp_before.C.s_colors, a + fp.P.fp_after.C.s_colors))
    (0, 0) r.P.pressure

(* one workload's entry: deterministic counts only, so "drift" can
   compare it with the committed artifact field by field *)
let workload_json (w : R.workload) : A.J.t =
  let module J = A.J in
  let module S = Rp_core.Stats in
  let r = report_for w in
  let counts (c : I.counters) =
    J.Obj [ ("loads", J.Int c.I.loads); ("stores", J.Int c.I.stores) ]
  in
  let static (c : S.counts) =
    J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (S.to_alist c))
  in
  J.Obj
    [
      ("name", J.Str w.R.name);
      ("behaviour_ok", J.Bool r.P.behaviour_ok);
      ( "static",
        J.Obj
          [
            ("before", static r.P.static_before);
            ("after", static r.P.static_after);
          ] );
      ( "dynamic",
        J.Obj
          [
            ("before", counts r.P.dynamic_before);
            ("after", counts r.P.dynamic_after);
          ] );
      ( "improvement_pct",
        J.Obj
          [
            ( "static_loads",
              J.Float (impro r.P.static_before.S.loads r.P.static_after.S.loads)
            );
            ( "static_stores",
              J.Float
                (impro r.P.static_before.S.stores r.P.static_after.S.stores) );
            ( "dynamic_loads",
              J.Float
                (impro r.P.dynamic_before.I.loads r.P.dynamic_after.I.loads) );
            ( "dynamic_stores",
              J.Float
                (impro r.P.dynamic_before.I.stores r.P.dynamic_after.I.stores)
            );
          ] );
      ( "paper_improvement_pct",
        match paper_numbers_for w.R.name with
        | None -> J.Null
        | Some (_, pl, ps, dl, ds) ->
            J.Obj
              [
                ("static_loads", J.Float pl);
                ("static_stores", J.Float ps);
                ("dynamic_loads", J.Float dl);
                ("dynamic_stores", J.Float ds);
              ] );
      ( "promotion",
        J.Obj
          (List.map
             (fun (k, v) -> (k, J.Int v))
             (Rp_core.Promote.to_alist r.P.promote_stats)) );
      ( "pressure",
        (* the Table 3 reproduction: interference colors and MAXLIVE
           before/after promotion, program-wide and per routine *)
        let module C = Rp_regalloc.Color in
        let cb, ca = pressure_sums r in
        let maxlive sel =
          List.fold_left
            (fun m (fp : P.func_pressure) -> max m (sel fp).C.s_maxlive)
            0 r.P.pressure
        in
        J.Obj
          [
            ("colors_before", J.Int cb);
            ("colors_after", J.Int ca);
            ("maxlive_before", J.Int (maxlive (fun fp -> fp.P.fp_before)));
            ("maxlive_after", J.Int (maxlive (fun fp -> fp.P.fp_after)));
            ( "functions",
              J.Arr
                (List.map
                   (fun (fp : P.func_pressure) ->
                     J.Obj
                       [
                         ("name", J.Str fp.P.fp_name);
                         ("colors_before", J.Int fp.P.fp_before.C.s_colors);
                         ("colors_after", J.Int fp.P.fp_after.C.s_colors);
                         ("maxlive_before", J.Int fp.P.fp_before.C.s_maxlive);
                         ("maxlive_after", J.Int fp.P.fp_after.C.s_maxlive);
                       ])
                   r.P.pressure) );
          ] );
    ]

(* every measure of [runs] as a spread *)
let runs_json (runs : Rounds.runs) =
  List.map (fun (k, _) -> (k, A.spread_json (Rounds.summary runs k))) runs

let json_artifact () =
  let module J = A.J in
  let doc =
    J.Obj
      [
        ("schema_version", J.Int A.schema_version);
        ("tool", J.Str "bench");
        ("artifact", J.Str "promotion_tables");
        ("rounds", J.Int rounds);
        ("workloads", J.Arr (List.map workload_json R.all));
        ( "scalrep",
          (* the stencil/DSP family with --scalrep off vs on; counts
             include aliased array traffic, which scalar-only promotion
             cannot touch by design *)
          let module T = Rp_scalrep.Transform in
          J.Arr
            (List.map
               (fun name ->
                 let off = report_for (Option.get (R.find name)) in
                 let on = scalrep_on_report name in
                 let counts (c : I.counters) =
                   J.Obj
                     [
                       ("loads", J.Int c.I.loads);
                       ("aliased_loads", J.Int c.I.aliased_loads);
                       ("stores", J.Int c.I.stores);
                       ("aliased_stores", J.Int c.I.aliased_stores);
                     ]
                 in
                 let cut b a =
                   if a = 0 then 0.0 else float_of_int b /. float_of_int a
                 in
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("off", counts off.P.dynamic_after);
                     ("on", counts on.P.dynamic_after);
                     ( "load_cut",
                       J.Float
                         (cut
                            (total_loads off.P.dynamic_after)
                            (total_loads on.P.dynamic_after)) );
                     ( "store_cut",
                       J.Float
                         (cut
                            (total_stores off.P.dynamic_after)
                            (total_stores on.P.dynamic_after)) );
                     ( "transform",
                       match on.P.scalrep_stats with
                       | None -> J.Null
                       | Some st ->
                           J.Obj
                             [
                               ("loops_seen", J.Int st.T.loops_seen);
                               ( "loops_transformed",
                                 J.Int st.T.loops_transformed );
                               ( "groups_induction",
                                 J.Int st.T.groups_induction );
                               ( "groups_invariant",
                                 J.Int st.T.groups_invariant );
                               ("cells_carved", J.Int st.T.cells_carved);
                             ] );
                   ])
               scalrep_family) );
        ( "interp",
          (* filled when the "interp" artifact ran in this invocation *)
          J.Arr
            (List.map
               (fun i ->
                 let tree = List.assoc P.Tree i.i_runs in
                 J.Obj
                   [
                     ("name", J.Str i.i_name);
                     ("instrs", J.Int i.i_instrs);
                     ( "engines",
                       J.Obj
                         (List.map
                            (fun (e, runs) ->
                              ( P.interp_engine_to_string e,
                                J.Obj
                                  (runs_json runs
                                  @ [
                                      ( "exec_speedup_vs_tree",
                                        A.spread_json
                                          (Rounds.ratio tree runs "exec_ms") );
                                    ]
                                  @
                                  if e = P.Fused then
                                    [
                                      ("fused_ops", J.Int i.i_fused_ops);
                                      ( "ops_eliminated",
                                        J.Int i.i_ops_eliminated );
                                    ]
                                  else []) ))
                            i.i_runs) );
                   ])
               !interp_results) );
        ( "serve",
          (* filled when the "serve" artifact ran in this invocation *)
          match !serve_results with
          | None -> J.Null
          | Some r ->
              let section prefix keys =
                J.Obj
                  (List.map
                     (fun k ->
                       (k, A.spread_json (Rounds.summary r (prefix ^ k))))
                     keys)
              in
              J.Obj
                [
                  ("clients", J.Int serve_clients);
                  ("cold_requests", J.Int (List.length R.all));
                  ("warm_requests", J.Int (serve_clients * List.length R.all));
                  ( "cold",
                    section "cold_"
                      [ "mean_ms"; "p50_ms"; "p99_ms"; "hit_ratio"; "gen480_ms" ]
                  );
                  ( "warm",
                    section "warm_"
                      [ "mean_ms"; "p50_ms"; "p99_ms"; "req_per_s"; "hit_ratio" ]
                  );
                  ( "warm_speedup",
                    A.spread_json (Rounds.summary r "warm_speedup") );
                ] );
        ( "serve_storm",
          (* filled when the "serve-storm" artifact ran in this invocation *)
          match !storm_results with
          | None -> J.Null
          | Some r ->
              J.Obj
                [
                  ("requests", J.Int r.st_reqs);
                  ( "latency_ms",
                    J.Obj
                      [
                        ("median", J.Float r.st_latency.Rounds.median);
                        ("iqr", J.Float r.st_latency.Rounds.iqr);
                        ("p99", J.Float r.st_p99_ms);
                      ] );
                  ( "outcomes",
                    J.Obj
                      [
                        ("report", J.Int r.st_reports);
                        ("cached", J.Int r.st_cached);
                        ("timeout", J.Int r.st_timeouts);
                        ("busy", J.Int r.st_busy);
                        ("protocol_error", J.Int r.st_protocol_errors);
                        ("other", J.Int r.st_other);
                        ("dedup_joins", J.Int r.st_dedup_joins);
                      ] );
                  ( "hit_curve",
                    J.Arr
                      (Array.to_list
                         (Array.map (fun x -> J.Float x) r.st_hit_curve)) );
                  ( "warm64",
                    J.Obj
                      ([
                         ("conns", J.Int storm_conns);
                         ("requests", J.Int (storm_conns * warm64_per_conn));
                       ]
                      @ runs_json r.st_warm64) );
                ] );
      ]
  in
  Out_channel.with_open_text A.file (fun oc ->
      output_string oc (J.to_string doc));
  rule ();
  Printf.printf "wrote %s (%d workloads)\n" A.file (List.length R.all)

(* ------------------------------------------------------------------ *)
(* Gate and drift: what CI checks against the committed artifact.  Both
   read BENCH_promotion.json, so they must run before "json" rewrites
   it. *)

let committed =
  lazy
    (match A.read A.file with
    | Ok doc -> doc
    | Error e ->
        Printf.printf "cannot check against the artifact: %s\n" e;
        exit 1)

let need what = function
  | Some v -> v
  | None ->
      Printf.printf "%s has no %s\n" A.file what;
      exit 1

(* A gate row: a spread over interleaved rounds whose median is held
   against a bound (a floor when [at_least], else a ceiling). *)
type gate_row = {
  name : string;
  what : string;
  at_least : bool;
  bound : unit -> float;
  stat : unit -> Rounds.spread;
}

let gate_rows () =
  (* gen240 under the four engines, timed exactly as "interp" times
     it: the artifact's numbers come from the same rounds *)
  let gen240 = lazy (interp_one (R.generated 240)).i_runs in
  let engine e = List.assoc e (Lazy.force gen240) in
  (* the warm64 rounds "serve-storm" just timed, if it ran *)
  let warm =
    lazy
      (match !storm_results with Some r -> r.st_warm64 | None -> warm64 ())
  in
  [
    {
      name = "flat-wall";
      what = "gen240 flat profile+measure ms, <= 2x artifact";
      at_least = false;
      bound =
        (fun () ->
          let entry =
            Option.bind
              (A.find (Lazy.force committed) [ "interp" ])
              (A.named "gen240")
          in
          2.0
          *. need "gen240 flat profile_measure_ms median"
               (Option.bind entry (fun e ->
                    A.median e [ "engines"; "flat"; "profile_measure_ms" ])));
      stat = (fun () -> Rounds.summary (engine P.Flat) "profile_measure_ms");
    };
    {
      name = "reg-vs-flat";
      what = "gen240 execute ms, flat over reg, >= 2x";
      at_least = true;
      bound = (fun () -> 2.0);
      stat = (fun () -> Rounds.ratio (engine P.Flat) (engine P.Reg) "exec_ms");
    };
    {
      name = "fused-vs-reg";
      what = "gen240 execute ms, reg over fused, >= 1.3x";
      at_least = true;
      bound = (fun () -> 1.3);
      stat = (fun () -> Rounds.ratio (engine P.Reg) (engine P.Fused) "exec_ms");
    };
    {
      name = "warm64";
      what = "warm64 mux req/s, >= 1/3 of artifact";
      at_least = true;
      bound =
        (fun () ->
          need "warm64 mux_req_per_s median"
            (A.median (Lazy.force committed)
               [ "serve_storm"; "warm64"; "mux_req_per_s" ])
          /. 3.0);
      stat = (fun () -> Rounds.summary (Lazy.force warm) "mux_req_per_s");
    };
  ]

(* Run the rows named in [args], or every row when none is named. *)
let gate args =
  rule ();
  print_endline "Gate: each row's median over interleaved rounds vs its bound";
  Printf.printf " (%d rounds after a warm-up; CI fails on any failed row)\n"
    rounds;
  rule ();
  let rows = gate_rows () in
  let rows =
    match List.filter (fun r -> List.mem r.name args) rows with
    | [] -> rows
    | named -> named
  in
  let failed =
    List.filter
      (fun row ->
        let bound = row.bound () in
        let s = row.stat () in
        let ok =
          if row.at_least then s.Rounds.median >= bound
          else s.Rounds.median <= bound
        in
        Printf.printf "%-12s %-46s median %9.3f (IQR %7.3f) %s %9.3f  %s\n"
          row.name row.what s.Rounds.median s.Rounds.iqr
          (if row.at_least then ">=" else "<=")
          bound
          (if ok then "ok" else "FAILED");
        not ok)
      rows
  in
  if failed <> [] then begin
    Printf.printf "gate FAILED: %s\n"
      (String.concat ", " (List.map (fun r -> r.name) failed));
    exit 1
  end
  else print_endline "gate passed"

let drift () =
  rule ();
  Printf.printf
    "Drift: each workload's deterministic counts (%s) vs the committed %s\n"
    (String.concat ", " A.drift_keys)
    A.file;
  print_endline " (CI fails on any difference)";
  rule ();
  match
    A.drift ~committed:(Lazy.force committed)
      ~fresh:(List.map workload_json R.all)
  with
  | [] -> Printf.printf "drift passed: %d workloads match\n" (List.length R.all)
  | diffs ->
      List.iter print_endline diffs;
      Printf.printf "drift FAILED: %d count(s) differ\n" (List.length diffs);
      exit 1

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* a bare number is the serve-storm request count *)
  let storm_n = List.find_map int_of_string_opt args in
  let args = List.filter (fun a -> int_of_string_opt a = None) args in
  let want name = args = [] || List.mem name args in
  if want "table1" then table1 ();
  if want "table2" then table2 ();
  if want "table3" then table3 ();
  if want "fig1" then fig1 ();
  if want "fig7" then fig7 ();
  if want "fig9" then fig9 ();
  if want "ablation1" then ablation1 ();
  if want "ablation2" then ablation2 ();
  if want "ablation3" then ablation3 ();
  if want "ablation4" then ablation4 ();
  if want "ablation5" then ablation5 ();
  if want "scaling" then scaling ();
  if want "scalrep" then scalrep_table ();
  if want "interp" then interp ();
  if want "serve" then serve ();
  (* the opt-in artifact and checks: serve-storm pushes ~100k
     requests; gate and drift read the committed artifact, so they run
     before "json" rewrites it *)
  if List.mem "serve-storm" args then serve_storm ?n:storm_n ();
  if List.mem "gate" args then gate args;
  if List.mem "drift" args then drift ();
  if want "json" then json_artifact ();
  rule ();
  print_endline "done; see EXPERIMENTS.md for the paper-vs-measured discussion"
