(* The end-to-end compilation pipeline:

     MiniC --frontend--> IR --normalise--> interval trees
           --SSA--> pruned SSA over registers and memory resources
           --clean--> fair baseline (copy propagation + DCE)
           --interpret--> baseline dynamic counts + execution profile
           --promote--> the paper's algorithm, bottom-up per interval
           --clean--> remove promotion copies and dead code
           --interpret--> dynamic counts after promotion + oracle check

   Everything is measured on the same program object; the [report]
   captures before/after static and dynamic counts plus the behaviour
   check (printed output and exit value must be unchanged).

   Every stage runs inside an [Rp_obs.Trace] span, absolute sizes and
   before/after counts land in the [Rp_obs.Metrics] registry, and
   [json_report] serialises the whole run as a versioned JSON document.
   With [checkpoints = true] the structural validator (and, once the
   program is in SSA form, the SSA verifier) runs after every
   instrumented pass, each check recorded as its own span.

   Concurrency model.  The paper's algorithm is strictly per-function,
   so with [jobs > 1] every per-function stage — normalisation, SSA
   construction, verification, cleanup, promotion, checkpoints — fans
   out over a [Rp_par.Pool] of OCaml domains, one task per function.
   Tasks own their function outright and only read the shared variable
   table; the observability layer is the one shared sink and is
   thread-safe ([Metrics]) or per-domain with deterministic stitching
   ([Trace.capture]/[graft] in [par_funcs]).  The interpreter runs
   (profiling and the final measurement) stay serial: they execute the
   whole program against global memory and are the correctness oracle
   the parallel compile is judged against.  Output is bit-identical to
   a serial run whatever [jobs] is. *)

open Rp_ir
open Rp_analysis
open Rp_ssa
module Interp = Rp_interp.Interp
module Decode = Rp_interp.Decode
module Engine = Rp_interp.Engine
module Rcompile = Rp_interp.Rcompile
module Rengine = Rp_interp.Rengine
module Lower = Rp_minic.Lower
module Trace = Rp_obs.Trace
module Metrics = Rp_obs.Metrics
module Pool = Rp_par.Pool
module J = Rp_obs.Json

type profile_source = Measured | Static_estimate
type interp_engine = Flat | Tree | Reg | Fused

(* Every enum option follows the same symmetric codec convention:
   [x_to_string] names each constructor, [x_of_string] is total and
   accepts exactly those names (plus documented abbreviations),
   returning [None] otherwise.  [Incremental.engine_of_string] is the
   third member of the family. *)

let interp_engine_of_string = function
  | "flat" -> Some Flat
  | "tree" -> Some Tree
  | "reg" -> Some Reg
  | "fused" -> Some Fused
  | _ -> None

let interp_engine_to_string = function
  | Flat -> "flat"
  | Tree -> "tree"
  | Reg -> "reg"
  | Fused -> "fused"

let profile_source_of_string = function
  | "measured" -> Some Measured
  | "static" -> Some Static_estimate
  | _ -> None

let profile_source_to_string = function
  | Measured -> "measured"
  | Static_estimate -> "static"

type options = {
  promote : Promote.config;
  profile : profile_source;
  fuel : int;  (** interpreter instruction budget per run *)
  singleton_deref : bool;
      (** lower unambiguous pointer dereferences as singleton accesses *)
  checkpoints : bool;
      (** validate (and verify, once in SSA) after every pass *)
  trace : bool;  (** collect spans even when the sink is [Off] *)
  jobs : int;
      (** compile [jobs] functions concurrently on OCaml domains;
          1 (the default) keeps everything on the calling domain *)
  interp : interp_engine;
      (** which interpreter runs the profiling and measurement passes:
          the flat-decoded engine (default) or the tree-walking oracle;
          both produce identical observable results *)
  scalrep : bool;
      (** scalar replacement of affine array references: rewrite
          eligible [for] loops before lowering so array elements with
          constant reuse distance become promotable scalar cells
          ([Rp_scalrep]).  Changes output, so it is part of the serve
          cache key. *)
}

let default_options =
  {
    promote = Promote.default_config;
    profile = Measured;
    fuel = 50_000_000;
    singleton_deref = false;
    checkpoints = false;
    trace = false;
    jobs = 1;
    interp = Flat;
    scalrep = false;
  }

(* The register budget lives in one place, the cost model
   [options.promote.cost]. *)
let effective_regs (options : options) : int option =
  options.promote.Promote.cost.Cost_model.regs

let effective_promote (options : options) : Promote.config = options.promote

type func_pressure = {
  fp_name : string;
  fp_before : Rp_regalloc.Color.summary;
  fp_after : Rp_regalloc.Color.summary;
}

type report = {
  prog : Func.prog;
  trees : (string * Intervals.tree) list;
  static_before : Stats.counts;
  static_after : Stats.counts;
  dynamic_before : Interp.counters;
  dynamic_after : Interp.counters;
  promote_stats : Promote.stats;
  per_function : (string * Promote.stats) list;
  behaviour_ok : bool;
  baseline : Interp.result;
  final : Interp.result;
  pressure : func_pressure list;
  pressure_regs : int option;
  scalrep_stats : Rp_scalrep.Transform.stats option;
      (** [Some] iff [options.scalrep] ran *)
  timing : (string * float) list;
}

(* Fan one task per function out through the pool.  Each task's spans
   are captured on whichever domain executes it and grafted back in
   program order once the batch joins, so the collected trace — and
   hence the JSON report — has the same shape (and, under a
   deterministic clock, the same bytes) for any [jobs]. *)
let par_funcs pool (work : Func.t -> 'a) (fs : Func.t list) : 'a list =
  Pool.map pool (fun f -> Trace.capture (fun () -> work f)) fs
  |> List.map (fun (v, captured) ->
         Trace.graft captured;
         v)

let par_iter_funcs pool (work : Func.t -> unit) (fs : Func.t list) : unit =
  ignore (par_funcs pool work fs)

(* IR size gauges, refreshed after the phases that change them. *)
let record_ir_size (prog : Func.prog) =
  let blocks, instrs, phis =
    List.fold_left
      (fun acc f ->
        Func.fold_blocks
          (fun (bs, is, ps) b ->
            ( bs + 1,
              is + Iseq.length b.Block.body,
              ps + Iseq.length b.Block.phis ))
          acc f)
      (0, 0, 0) prog.Func.funcs
  in
  Metrics.set_gauge "ir.blocks" (float_of_int blocks);
  Metrics.set_gauge "ir.instrs" (float_of_int instrs);
  Metrics.set_gauge "ir.phis" (float_of_int phis)

(* One function's debug check: the structural validator before SSA,
   the SSA verifier (which runs the structural checks first) once the
   program is in SSA form. *)
let check_func ~(ssa : bool) vartab (f : Func.t) =
  if ssa then Verify.assert_ok vartab f else Validate.assert_ok vartab f

(* A whole-program checkpoint after pass [after], fanned out per
   function (the checks emit no spans, so no capture is needed).  Cost
   is visible in the trace as its own span. *)
let checkpoint pool (options : options) ~(ssa : bool) (after : string)
    (prog : Func.prog) : unit =
  if options.checkpoints then
    Trace.with_span "checkpoint" ~attrs:[ ("after", after) ] @@ fun () ->
    Pool.iter pool (check_func ~ssa prog.Func.vartab) prog.Func.funcs

(* The per-function variant, run inside a promotion task: only [f] is
   in a consistent state while its siblings are mid-flight. *)
let checkpoint_func (options : options) ~(ssa : bool) (after : string) vartab
    (f : Func.t) : unit =
  if options.checkpoints then
    Trace.with_span "checkpoint" ~attrs:[ ("after", after) ] @@ fun () ->
    check_func ~ssa vartab f

(* The MiniC frontend: parse, (optionally) scalar-replace affine array
   references, analyse, lower.  The scalrep rewrite is AST-to-AST and
   introduces new names/statements, so semantic analysis reruns on the
   rewritten program before aliasing and lowering. *)
let frontend ~(options : options) (src : string) :
    Func.prog * Rp_scalrep.Transform.stats option =
  let module Parser = Rp_minic.Parser in
  let module Sema = Rp_minic.Sema in
  let module Alias = Rp_minic.Alias in
  Trace.with_span "frontend.compile" @@ fun () ->
  if not options.scalrep then
    (Lower.compile ~opt_singleton_deref:options.singleton_deref src, None)
  else
    let ast = Parser.parse_program src in
    let sema0 = Sema.analyse ast in
    let ast', st =
      Trace.with_span "frontend.scalrep" (fun () ->
          Rp_scalrep.Transform.program sema0)
    in
    let sema = Sema.analyse ast' in
    let alias = Alias.analyse sema in
    ( Lower.lower ~opt_singleton_deref:options.singleton_deref sema alias,
      Some st )

(* Compile and normalise, build SSA, clean.  Returns the program and
   the interval tree per function. *)
let prepare_in pool ~(options : options) (src : string) :
    Func.prog
    * (string * Intervals.tree) list
    * Rp_scalrep.Transform.stats option =
  Trace.with_span "pipeline.prepare" @@ fun () ->
  let prog, srstats = frontend ~options src in
  checkpoint pool options ~ssa:false "frontend.compile" prog;
  let trees =
    Trace.with_span "normalise" (fun () ->
        par_funcs pool
          (fun (f : Func.t) -> (f.Func.fname, Intervals.normalise f))
          prog.Func.funcs)
  in
  checkpoint pool options ~ssa:false "normalise" prog;
  Trace.with_span "construct_ssa" (fun () ->
      par_iter_funcs pool
        (Construct.run ~engine:options.promote.Promote.engine)
        prog.Func.funcs);
  Trace.with_span "verify_ssa" (fun () ->
      par_iter_funcs pool (Verify.assert_ok prog.Func.vartab) prog.Func.funcs);
  Trace.with_span "cleanup" (fun () ->
      par_iter_funcs pool Rp_opt.Cleanup.run prog.Func.funcs);
  checkpoint pool options ~ssa:true "cleanup" prog;
  record_ir_size prog;
  (prog, trees, srstats)

let prepare ?(options = default_options) (src : string) :
    Func.prog * (string * Intervals.tree) list =
  Pool.with_pool ~jobs:options.jobs @@ fun pool ->
  let prog, trees, _ = prepare_in pool ~options src in
  (prog, trees)

(* A compiled execution image for one of the two bytecode engines; the
   tree-walking oracle needs none. *)
type image = Iflat of Decode.t | Ireg of Rcompile.t

(* Attach a profile: run the program and feed back measured counts, or
   fall back to the static estimator for functions never executed.
   Serial on purpose: the interpreter executes the whole program
   against global memory.  With [?decoded] the run uses the matching
   bytecode engine on the given image (which must be current for
   [prog]); otherwise the tree-walking oracle. *)
let attach_profile ?(options = default_options) ?decoded ?run_done
    (prog : Func.prog) (trees : (string * Intervals.tree) list) : Interp.result
    =
  Trace.with_span "pipeline.attach_profile" @@ fun () ->
  let r =
    Trace.with_span "profile.run" (fun () ->
        match decoded with
        | Some (Iflat d) -> Engine.run ~fuel:options.fuel d
        | Some (Ireg c) -> Rengine.run ~fuel:options.fuel c
        | None -> Interp.run ~fuel:options.fuel prog)
  in
  (match run_done with Some t -> t := Trace.wall_s () | None -> ());
  Trace.with_span "profile.apply" (fun () ->
      match options.profile with
      | Measured ->
          Interp.apply_profile prog r;
          (* unexecuted functions keep a static estimate *)
          List.iter
            (fun (f : Func.t) ->
              if not (Freq.has_profile f) then
                match List.assoc_opt f.Func.fname trees with
                | Some tree -> Freq.estimate f tree
                | None -> ())
            prog.Func.funcs
      | Static_estimate ->
          List.iter
            (fun (f : Func.t) ->
              match List.assoc_opt f.Func.fname trees with
              | Some tree -> Freq.estimate f tree
              | None -> ())
            prog.Func.funcs);
  r

let record_counts_metrics ~static_before ~static_after
    ~(dynamic_before : Interp.counters) ~(dynamic_after : Interp.counters) =
  List.iter
    (fun (k, v) ->
      Metrics.set_gauge ("static." ^ k ^ "_before") (float_of_int v))
    (Stats.to_alist static_before);
  List.iter
    (fun (k, v) ->
      Metrics.set_gauge ("static." ^ k ^ "_after") (float_of_int v))
    (Stats.to_alist static_after);
  Metrics.set_gauge "dynamic.loads_before"
    (float_of_int dynamic_before.Interp.loads);
  Metrics.set_gauge "dynamic.stores_before"
    (float_of_int dynamic_before.Interp.stores);
  Metrics.set_gauge "dynamic.loads_after"
    (float_of_int dynamic_after.Interp.loads);
  Metrics.set_gauge "dynamic.stores_after"
    (float_of_int dynamic_after.Interp.stores)

(* The promotion fan-out: one task per function, results in program
   order.  Each task also runs its own checkpoint — only its function
   is in a consistent state while siblings are mid-flight. *)
let promote_prog_in pool ~(options : options) (prog : Func.prog)
    (trees : (string * Intervals.tree) list) :
    (string * Promote.stats) list =
  let cfg = options.promote in
  Trace.with_span "promote" (fun () ->
      par_funcs pool
        (fun (f : Func.t) ->
          match List.assoc_opt f.Func.fname trees with
          | Some tree ->
              let s =
                Promote.promote_function ~cfg f prog.Func.vartab tree
              in
              checkpoint_func options ~ssa:true
                ("promote:" ^ f.Func.fname)
                prog.Func.vartab f;
              Some (f.Func.fname, s)
          | None -> None)
        prog.Func.funcs
      |> List.filter_map Fun.id)

(* The Table 3 measurement: colors / MAXLIVE / spills-at-budget per
   function, fanned out over the pool; only the spill estimate under a
   budget builds an interference graph.  Runs twice per pipeline
   (before promotion and after finalisation); [k] is the register
   budget. *)
let measure_pressure pool ~(when_ : string) ~(k : int option)
    (prog : Func.prog) : (string * Rp_regalloc.Color.summary) list =
  Trace.with_span "pressure" ~attrs:[ ("when", when_) ] @@ fun () ->
  par_funcs pool
    (fun (f : Func.t) -> (f.Func.fname, Rp_regalloc.Color.analyse f ~k))
    prog.Func.funcs

let zip_pressure before after : func_pressure list =
  List.map2
    (fun (n, b) (n', a) ->
      assert (String.equal n n');
      { fp_name = n; fp_before = b; fp_after = a })
    before after

(* Post-promotion finalisation: verify, clean, verify again.  Under
   [options.scalrep] the cleanup bundle gains memory-SSA dead-store
   elimination: once promotion has replaced every cell load with a
   register read, the rotation stores at the loop latch feed nothing
   but their own memory phis, and the DSE cascade erases the whole
   chain.  It stays off otherwise so default-flag reports are
   byte-identical with earlier schema versions' output. *)
let finalise_in pool ~(options : options) (prog : Func.prog) : unit =
  Trace.with_span "verify_ssa" (fun () ->
      par_iter_funcs pool (Verify.assert_ok prog.Func.vartab) prog.Func.funcs);
  Trace.with_span "cleanup" (fun () ->
      par_iter_funcs pool
        (fun f ->
          Rp_opt.Cleanup.run f;
          if options.scalrep then begin
            ignore (Rp_opt.Dse.run f);
            Rp_opt.Cleanup.run f
          end)
        prog.Func.funcs);
  Trace.with_span "verify_ssa" (fun () ->
      par_iter_funcs pool (Verify.assert_ok prog.Func.vartab) prog.Func.funcs);
  record_ir_size prog

(* Full pipeline on a MiniC source string. *)
let run ?(options = default_options) (src : string) : report =
  if options.trace && not (Trace.enabled ()) then
    Trace.set_sink Trace.Collect;
  Pool.with_pool ~jobs:options.jobs @@ fun pool ->
  Trace.with_span "pipeline.run" @@ fun () ->
  let ms t0 t1 = (t1 -. t0) *. 1000.0 in
  (* each phase boundary reads the wall clock and the main domain's
     allocation clock; both zero out under the deterministic flag *)
  let t0 = Trace.wall_s () and a0 = Trace.alloc_words () in
  let prog, trees, scalrep_stats = prepare_in pool ~options src in
  let t_prepared = Trace.wall_s () and a_prepared = Trace.alloc_words () in
  (* Decode once for the flat engine; the image is refreshed (in the
     same buffers) after promotion rewrites the IR, so both runs share
     one layout, one set of interned names and one activation pool.
     The span is emitted under both engines — the trace must have the
     same shape whichever interpreter runs. *)
  let decoded =
    Trace.with_span "profile.decode" (fun () ->
        match options.interp with
        | Flat -> Some (Iflat (Decode.decode prog))
        | Reg -> Some (Ireg (Rcompile.compile prog))
        | Fused -> Some (Ireg (Rcompile.compile ~fuse:true prog))
        | Tree -> None)
  in
  let t_pdecoded = Trace.wall_s () in
  let t_prun = ref 0.0 in
  let baseline = attach_profile ~options ?decoded ~run_done:t_prun prog trees in
  let t_profiled = Trace.wall_s () and a_profiled = Trace.alloc_words () in
  let static_before = Stats.of_prog prog in
  let k = effective_regs options in
  let pressure_before = measure_pressure pool ~when_:"before" ~k prog in
  let t_pressure_b = Trace.wall_s () in
  let per_function = promote_prog_in pool ~options prog trees in
  let stats = Promote.empty_stats () in
  List.iter (fun (_, s) -> Promote.accumulate stats s) per_function;
  let t_promoted = Trace.wall_s () and a_promoted = Trace.alloc_words () in
  finalise_in pool ~options prog;
  let static_after = Stats.of_prog prog in
  let t_finalised = Trace.wall_s () and a_finalised = Trace.alloc_words () in
  let pressure_after = measure_pressure pool ~when_:"after" ~k prog in
  let t_pressure_a = Trace.wall_s () in
  Trace.with_span "measure.decode" (fun () ->
      match decoded with
      | Some (Iflat d) -> Decode.refresh d
      | Some (Ireg c) -> Rcompile.refresh c
      | None -> ());
  let t_mdecoded = Trace.wall_s () in
  let final =
    Trace.with_span "measure.run" (fun () ->
        match decoded with
        | Some (Iflat d) -> Engine.run ~fuel:options.fuel d
        | Some (Ireg c) -> Rengine.run ~fuel:options.fuel c
        | None -> Interp.run ~fuel:options.fuel prog)
  in
  let t_measured = Trace.wall_s () and a_measured = Trace.alloc_words () in
  let alloc name a b =
    let words = b -. a in
    Metrics.set_gauge ("alloc." ^ name ^ ".minor_words") words;
    (name ^ "_minor_words", words)
  in
  record_counts_metrics ~static_before ~static_after
    ~dynamic_before:baseline.Interp.counters
    ~dynamic_after:final.Interp.counters;
  (* peephole-fusion statistics of the post-promotion image.  Emitted
     under every engine (0 when fusion is off or inapplicable) and
     zeroed under the deterministic flag, like the wall-clock and
     allocation entries, so report bytes stay engine-independent. *)
  let fused_ops, ops_eliminated =
    if Trace.deterministic () then (0.0, 0.0)
    else
      match decoded with
      | Some (Ireg c) when c.Rcompile.fuse ->
          ( float_of_int c.Rcompile.rfused_ops,
            float_of_int c.Rcompile.rops_eliminated )
      | _ -> (0.0, 0.0)
  in
  {
    prog;
    trees;
    static_before;
    static_after;
    dynamic_before = baseline.Interp.counters;
    dynamic_after = final.Interp.counters;
    promote_stats = stats;
    per_function;
    behaviour_ok = Interp.same_behaviour baseline final;
    baseline;
    final;
    pressure = zip_pressure pressure_before pressure_after;
    pressure_regs = k;
    scalrep_stats;
    timing =
      [
        ("prepare_ms", ms t0 t_prepared);
        ("profile_ms", ms t_prepared t_profiled);
        (* decode/execute split of the two interpreter phases; the
           decode components are 0 under the tree-walking oracle.
           [profile_exec_ms] is the engine run alone — the profile
           feedback ([profile.apply]: count attachment plus static
           estimation of unexecuted functions) is engine-independent
           bookkeeping and reports separately, so the exec numbers
           compare engines and nothing else. *)
        ("profile_decode_ms", ms t_prepared t_pdecoded);
        ("profile_exec_ms", ms t_pdecoded !t_prun);
        ("profile_apply_ms", ms !t_prun t_profiled);
        (* both interference-analysis passes (before + after) *)
        ( "pressure_ms",
          ms t_profiled t_pressure_b +. ms t_finalised t_pressure_a );
        ("promote_ms", ms t_pressure_b t_promoted);
        ("finalise_ms", ms t_promoted t_finalised);
        ("measure_ms", ms t_pressure_a t_measured);
        ("measure_decode_ms", ms t_pressure_a t_mdecoded);
        ("measure_exec_ms", ms t_mdecoded t_measured);
        ("total_ms", ms t0 t_measured);
        ("fused_ops", fused_ops);
        ("ops_eliminated", ops_eliminated);
        alloc "prepare" a0 a_prepared;
        alloc "profile" a_prepared a_profiled;
        alloc "promote" a_profiled a_promoted;
        alloc "finalise" a_promoted a_finalised;
        alloc "measure" a_finalised a_measured;
        alloc "total" a0 a_measured;
      ];
  }

(* Compile-only pipeline: everything [run] does except the interpreter
   runs — the profile is the static loop-depth estimate, and there is
   no baseline/measurement/oracle.  This is the path whose wall-clock
   scales with [options.jobs]; the scaling benchmark times it. *)
let optimise ?(options = default_options) (src : string) :
    Func.prog * (string * Promote.stats) list =
  Pool.with_pool ~jobs:options.jobs @@ fun pool ->
  Trace.with_span "pipeline.optimise" @@ fun () ->
  let prog, trees, _ = prepare_in pool ~options src in
  Trace.with_span "profile.estimate" (fun () ->
      par_iter_funcs pool
        (fun (f : Func.t) ->
          match List.assoc_opt f.Func.fname trees with
          | Some tree -> Freq.estimate f tree
          | None -> ())
        prog.Func.funcs);
  let per_function = promote_prog_in pool ~options prog trees in
  finalise_in pool ~options prog;
  (prog, per_function)

(* ------------------------------------------------------------------ *)
(* JSON serialisation (report schema v5; see DESIGN.md) *)

let counts_json (c : Stats.counts) : J.t =
  J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Stats.to_alist c))

let counters_json (c : Interp.counters) : J.t =
  J.Obj
    [
      ("loads", J.Int c.Interp.loads);
      ("stores", J.Int c.Interp.stores);
      ("aliased_loads", J.Int c.Interp.aliased_loads);
      ("aliased_stores", J.Int c.Interp.aliased_stores);
      ("instrs", J.Int c.Interp.instrs);
    ]

let stats_json (s : Promote.stats) : J.t =
  J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Promote.to_alist s))

(* The schema-v4 pressure section (the paper's Table 3): per function
   and program-wide, colors / MAXLIVE / spills-at-budget before and
   after promotion, plus the per-cause web admission counts.  Colors
   and spills aggregate by sum (registers are per-function), MAXLIVE by
   max. *)
let pressure_json (r : report) : J.t =
  let opt_int = function Some v -> J.Int v | None -> J.Null in
  let summary_fields prefix (s : Rp_regalloc.Color.summary) =
    [
      ("colors_" ^ prefix, J.Int s.Rp_regalloc.Color.s_colors);
      ("maxlive_" ^ prefix, J.Int s.Rp_regalloc.Color.s_maxlive);
      ("spills_" ^ prefix, opt_int s.Rp_regalloc.Color.s_spills);
    ]
  in
  let sum get = List.fold_left (fun acc fp -> acc + get fp) 0 r.pressure in
  let top get = List.fold_left (fun acc fp -> max acc (get fp)) 0 r.pressure in
  let spill_sum get =
    Option.map
      (fun _ -> sum (fun fp -> Option.value (get fp) ~default:0))
      r.pressure_regs
  in
  let s = r.promote_stats in
  J.Obj
    [
      ("regs", opt_int r.pressure_regs);
      ( "program",
        J.Obj
          ([
             ( "colors_before",
               J.Int (sum (fun fp -> fp.fp_before.Rp_regalloc.Color.s_colors))
             );
             ( "colors_after",
               J.Int (sum (fun fp -> fp.fp_after.Rp_regalloc.Color.s_colors))
             );
             ( "maxlive_before",
               J.Int (top (fun fp -> fp.fp_before.Rp_regalloc.Color.s_maxlive))
             );
             ( "maxlive_after",
               J.Int (top (fun fp -> fp.fp_after.Rp_regalloc.Color.s_maxlive))
             );
             ( "spills_before",
               opt_int
                 (spill_sum (fun fp -> fp.fp_before.Rp_regalloc.Color.s_spills))
             );
             ( "spills_after",
               opt_int
                 (spill_sum (fun fp -> fp.fp_after.Rp_regalloc.Color.s_spills))
             );
           ]
          @ [
              ( "webs",
                J.Obj
                  [
                    ("promoted", J.Int s.Promote.webs_promoted);
                    ("blocked_profit", J.Int s.Promote.webs_skipped_profit);
                    ("blocked_pressure", J.Int s.Promote.webs_skipped_pressure);
                    ( "blocked_malformed",
                      J.Int s.Promote.webs_skipped_malformed );
                  ] );
            ]) );
      ( "functions",
        J.Arr
          (List.map
             (fun fp ->
               J.Obj
                 (("name", J.Str fp.fp_name)
                 :: (summary_fields "before" fp.fp_before
                    @ summary_fields "after" fp.fp_after)))
             r.pressure) );
    ]

(* The schema-v5 scalrep section: whether the pre-lowering scalar
   replacement of array references ran, and what it did. *)
let scalrep_json (r : report) : J.t =
  match r.scalrep_stats with
  | None -> J.Obj [ ("enabled", J.Bool false) ]
  | Some s ->
      let module T = Rp_scalrep.Transform in
      J.Obj
        [
          ("enabled", J.Bool true);
          ("loops_seen", J.Int s.T.loops_seen);
          ("loops_transformed", J.Int s.T.loops_transformed);
          ("groups_induction", J.Int s.T.groups_induction);
          ("groups_invariant", J.Int s.T.groups_invariant);
          ("cells_carved", J.Int s.T.cells_carved);
          ( "skipped",
            J.Obj
              [
                ("loop_shape", J.Int s.T.skip_loop_shape);
                ("body_unsafe", J.Int s.T.skip_body_unsafe);
                ("no_candidates", J.Int s.T.skip_no_candidates);
                ("arrays_dropped", J.Int s.T.arrays_dropped);
              ] );
        ]

let json_report ?label (r : report) : J.t =
  let impro before after = J.Float (Stats.improvement ~before ~after) in
  Rp_obs.Report.make ~tool:"rpromote" ~timing:r.timing
    ((match label with Some l -> [ ("source", J.Str l) ] | None -> [])
    @ [
        ("behaviour_ok", J.Bool r.behaviour_ok);
        ( "static",
          J.Obj
            [
              ("before", counts_json r.static_before);
              ("after", counts_json r.static_after);
              ( "improvement_pct",
                J.Obj
                  [
                    ( "loads",
                      impro r.static_before.Stats.loads
                        r.static_after.Stats.loads );
                    ( "stores",
                      impro r.static_before.Stats.stores
                        r.static_after.Stats.stores );
                  ] );
            ] );
        ( "dynamic",
          J.Obj
            [
              ("before", counters_json r.dynamic_before);
              ("after", counters_json r.dynamic_after);
              ( "improvement_pct",
                J.Obj
                  [
                    ( "loads",
                      impro r.dynamic_before.Interp.loads
                        r.dynamic_after.Interp.loads );
                    ( "stores",
                      impro r.dynamic_before.Interp.stores
                        r.dynamic_after.Interp.stores );
                  ] );
            ] );
        ("promotion", stats_json r.promote_stats);
        ("pressure", pressure_json r);
        ("scalrep", scalrep_json r);
        ( "functions",
          J.Arr
            (List.map
               (fun (name, s) ->
                 J.Obj [ ("name", J.Str name); ("promotion", stats_json s) ])
               r.per_function) );
      ])

(* One-shot-equivalent run: what a fresh CLI process would produce.
   The global observability state (trace sink and collection, metrics
   registry, deterministic flag) is reset before and after, so a
   long-lived caller gets the same bytes as [rpromote promote --json]
   — provided it serialises calls, which the compile service does. *)
let run_fresh_json ?label ?(deterministic = false) ~options (src : string) :
    report * string =
  let prev_sink = Trace.sink () and prev_det = Trace.deterministic () in
  Trace.set_sink (if options.trace then Trace.Collect else Trace.Off);
  Trace.reset ();
  Metrics.reset ();
  Trace.set_deterministic deterministic;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_deterministic prev_det;
      Trace.set_sink prev_sink;
      Trace.reset ();
      Metrics.reset ())
    (fun () ->
      let r = run ~options src in
      (r, J.to_string (json_report ?label r)))
