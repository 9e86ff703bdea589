(** The end-to-end pipeline: MiniC → IR → normalisation → SSA →
    baseline cleanup → profiling run → promotion → cleanup → measuring
    run, with the before/after counts and the behaviour oracle in the
    report.

    Every stage is traced with [Rp_obs.Trace], pass statistics land in
    the [Rp_obs.Metrics] registry, and {!json_report} serialises a run
    as a versioned JSON document (schema v5, documented in DESIGN.md).

    Knobs travel in one {!options} record instead of per-call optional
    arguments; build yours with record update on {!default_options}:
    [{ default_options with fuel = 1_000_000; checkpoints = true }].

    With [jobs > 1] the per-function stages (normalisation, SSA
    construction, verification, cleanup, promotion, checkpoints) fan
    out over a pool of OCaml domains ({!Rp_par.Pool}), one task per
    function. The interpreter runs stay serial — they are the
    correctness oracle. The report, trace, and JSON output are
    identical to a serial run for any [jobs] value (bit-identical under
    [Rp_obs.Trace.set_deterministic]). *)

open Rp_ir
open Rp_analysis
module Interp = Rp_interp.Interp

type profile_source =
  | Measured  (** run the interpreter and feed the counts back *)
  | Static_estimate  (** loop-depth heuristic, no execution *)

type interp_engine =
  | Flat
      (** flat-decoded engine: one decode pass per run into packed code
          arrays, then an allocation-free dispatch loop ([Rp_interp.Engine]) *)
  | Tree  (** the tree-walking reference oracle ([Rp_interp.Interp]) *)
  | Reg
      (** register-allocated backend: out-of-SSA lowering, copy
          coalescing and slot coloring per function, then a
          physical-slot bytecode over contiguous activation frames
          ([Rp_interp.Rcompile] / [Rp_interp.Rengine]) *)
  | Fused
      (** the register backend with its peephole superinstruction
          layer: fused compare-and-branch, binop pair fusion,
          single-use copy folding, compile-time constant folding and
          reverse-postorder block layout
          ([Rp_interp.Rcompile.compile ~fuse:true]) *)

val interp_engine_of_string : string -> interp_engine option
(** ["flat"] / ["tree"] / ["reg"] / ["fused"]. *)

val interp_engine_to_string : interp_engine -> string

val profile_source_of_string : string -> profile_source option
(** ["measured"] / ["static"]. *)

val profile_source_to_string : profile_source -> string

type options = {
  promote : Promote.config;
      (** promotion knobs; [promote.engine] also selects the IDF engine
          for initial SSA construction, and [promote.cost] carries the
          register budget ([--regs K]) and spill-order mode *)
  profile : profile_source;
  fuel : int;  (** interpreter instruction budget per run *)
  singleton_deref : bool;
      (** lower unambiguous pointer dereferences as singleton accesses *)
  checkpoints : bool;
      (** debug mode: run the structural validator (plus the SSA
          verifier once in SSA form) after every instrumented pass;
          each checkpoint's cost shows up in the trace *)
  trace : bool;
      (** switch the trace sink from [Off] to [Collect] at the start of
          {!run} (an already-active sink is left alone) *)
  jobs : int;
      (** compile [jobs] functions concurrently on OCaml 5 domains;
          1 (the default) keeps everything on the calling domain *)
  interp : interp_engine;
      (** which interpreter runs the profiling and measurement passes;
          both produce identical observable results (reports are
          byte-identical in deterministic mode), the flat engine is
          roughly an order of magnitude faster *)
  scalrep : bool;
      (** scalar replacement of affine array references ([--scalrep]):
          rewrite eligible [for] loops before lowering so array
          elements with constant reuse distance become promotable
          scalar cells ({!Rp_scalrep.Transform}). Changes output, so
          the compile service includes it in its cache-key
          fingerprint. *)
}

val default_options : options
(** [Measured] profile, 50M fuel, paper-default promotion config (no
    register budget), checkpoints and tracing off, [jobs = 1],
    [interp = Flat]. *)

val effective_regs : options -> int option
(** The register budget promotion runs under: [promote.cost.regs]
    ([--regs K]; [None] is the paper-faithful unbounded behaviour).
    Unlike [jobs]/[interp] the budget and [promote.cost.spill_order]
    change output, so the compile service includes them in its
    cache-key fingerprint. *)

val effective_promote : options -> Promote.config
(** The config the promotion stage runs with: [options.promote],
    budget and spill-order mode included. *)

type func_pressure = {
  fp_name : string;
  fp_before : Rp_regalloc.Color.summary;
      (** colors / MAXLIVE / spills before promotion *)
  fp_after : Rp_regalloc.Color.summary;  (** same, after finalisation *)
}

type report = {
  prog : Func.prog;  (** the transformed program *)
  trees : (string * Intervals.tree) list;
  static_before : Stats.counts;
  static_after : Stats.counts;
  dynamic_before : Interp.counters;
  dynamic_after : Interp.counters;
  promote_stats : Promote.stats;  (** program-wide totals *)
  per_function : (string * Promote.stats) list;
      (** per-function promotion stats, in program order *)
  behaviour_ok : bool;
      (** the print trace and exit value were unchanged *)
  baseline : Interp.result;
  final : Interp.result;
  pressure : func_pressure list;
      (** the Table 3 measurement, one entry per function in program
          order: the colors the interference graph needs (MAXLIVE, its
          chromatic number on strict SSA), MAXLIVE and (when a budget
          is set) the Chaitin spill estimate, before and after
          promotion *)
  pressure_regs : int option;
      (** the effective register budget the run used (and at which
          spills were estimated); [None] = unbounded *)
  scalrep_stats : Rp_scalrep.Transform.stats option;
      (** what the scalar-replacement rewrite did; [Some] iff
          [options.scalrep] was set *)
  timing : (string * float) list;
      (** wall-clock milliseconds per phase, in phase order:
          [prepare_ms], [profile_ms] (with its [profile_decode_ms] /
          [profile_exec_ms] / [profile_apply_ms] split —
          [profile_exec_ms] is the engine run alone, the
          engine-independent profile feedback reports as
          [profile_apply_ms]), [pressure_ms] (both Table 3
          measurements, before and after promotion), [promote_ms],
          [finalise_ms], [measure_ms] (with [measure_decode_ms] /
          [measure_exec_ms]), [total_ms], then
          the [*_minor_words] allocation deltas. The decode components
          are 0 under the [Tree] engine. All zero in deterministic
          mode. *)
}

(** The MiniC frontend alone: parse, run the scalar-replacement
    rewrite when [options.scalrep] is set (and return its statistics),
    analyse and lower — the program as the IR pipeline first sees it,
    before normalisation and SSA construction. *)
val frontend :
  options:options -> string -> Func.prog * Rp_scalrep.Transform.stats option

(** Compile, normalise, build SSA and clean; returns the program and
    the interval tree per function. *)
val prepare :
  ?options:options -> string -> Func.prog * (string * Intervals.tree) list

(** A compiled execution image: flat-decoded or register-allocated. *)
type image =
  | Iflat of Rp_interp.Decode.t
  | Ireg of Rp_interp.Rcompile.t

(** Attach a profile (measured or estimated) and return the profiling
    run's result. With [?decoded] (an image current for the program)
    the measured run uses the matching bytecode engine; otherwise the
    tree-walking oracle. [?run_done] receives the wall-clock instant
    the engine run finished, before the engine-independent profile
    feedback — {!run} uses it to split [profile_exec_ms] from
    [profile_apply_ms]. *)
val attach_profile :
  ?options:options ->
  ?decoded:image ->
  ?run_done:float ref ->
  Func.prog ->
  (string * Intervals.tree) list ->
  Interp.result

(** Full pipeline on a MiniC source string.
    @raise Interp.Runtime_error when the program itself traps.
    @raise Interp.Out_of_fuel when [options.fuel] runs out. *)
val run : ?options:options -> string -> report

(** Compile-only pipeline: {!prepare}, a static ([Freq.estimate])
    profile, promotion and post-promotion cleanup — no interpreter
    runs, so its wall-clock is all compilation and scales with
    [options.jobs]. Returns the transformed program and the
    per-function promotion stats in program order. The scaling
    benchmark times this entry point. *)
val optimise :
  ?options:options -> string -> Func.prog * (string * Promote.stats) list

(** The versioned JSON document for a finished run: counts, promotion
    stats (totals and per function), per-phase wall-clock timing, the
    collected trace and the metrics snapshot. [label] names the source
    in the document. *)
val json_report : ?label:string -> report -> Rp_obs.Json.t

(** One-shot-equivalent run for long-lived processes (the compile
    service): reset the global trace and metrics registries, set the
    deterministic flag, run the pipeline and serialise {!json_report} —
    exactly the bytes a fresh [rpromote promote --json -] process
    would emit for the same source, options and flag. The trace sink
    is switched to [Collect] when [options.trace] is set and restored
    to its previous value (and the registries cleared again)
    afterwards, also on exception.

    The caller owns serialisation: the trace and metrics registries
    are process-global, so two concurrent [run_fresh_json] calls (or
    one racing any other instrumented work) would interleave their
    observability state. The compile service holds one lock around
    every call. *)
val run_fresh_json :
  ?label:string ->
  ?deterministic:bool ->
  options:options ->
  string ->
  report * string
