(* Step-by-step replays of [Pipeline.run] and [Pipeline.optimise]
   through the public functions of each layer, with a benchmark span
   around every call.  The replays make the same calls in the same
   order as the pipeline with [jobs = 1]; [observe_*] reduce a pipeline
   result and a replay to the same record so the drift guard can
   compare them exactly. *)

open Rp_ir
module P = Rp_core.Pipeline
module Promote = Rp_core.Promote
module Stats = Rp_core.Stats
module Interp = Rp_interp.Interp
module Freq = Rp_analysis.Freq
module Intervals = Rp_analysis.Intervals
module Color = Rp_regalloc.Color

(* What the drift guard compares. *)
type obs = {
  static_before : Stats.counts;
  static_after : Stats.counts;
  dyn_before : int list;
  dyn_after : int list;
  per_function : (string * (string * int) list) list;
  output : int list;
  exit_value : int;
}

(* Layer counts a replay measures besides its spans. *)
type counts = {
  ir_instrs : int;  (** instructions out of the frontend *)
  phis : int;  (** phis placed by SSA construction *)
  promote : Promote.stats;  (** program totals *)
  colors_after : int;  (** sum over functions *)
  maxlive_after : int;  (** max over functions *)
  interp_instrs : int;  (** both interpreter runs *)
}

let counters (c : Interp.counters) =
  Interp.[ c.loads; c.stores; c.aliased_loads; c.aliased_stores; c.instrs ]

(* dynamic loads and stores, scalar plus aliased *)
let mem_ops (c : Interp.counters) =
  Interp.(c.loads + c.stores + c.aliased_loads + c.aliased_stores)

let static_mem_ops (c : Stats.counts) = c.Stats.loads + c.Stats.stores

let stats_of per_function =
  let s = Promote.empty_stats () in
  List.iter (fun (_, x) -> Promote.accumulate s x) per_function;
  s

let alist per_function =
  List.map (fun (n, s) -> (n, Promote.to_alist s)) per_function

let observe_run (r : P.report) : obs =
  {
    static_before = r.P.static_before;
    static_after = r.P.static_after;
    dyn_before = counters r.P.dynamic_before;
    dyn_after = counters r.P.dynamic_after;
    per_function = alist r.P.per_function;
    output = r.P.final.Interp.output;
    exit_value = r.P.final.Interp.exit_value;
  }

let observe_optimise ((prog, per_function) : Func.prog * (string * Promote.stats) list) : obs =
  {
    static_before = Stats.zero;
    static_after = Stats.of_prog prog;
    dyn_before = [];
    dyn_after = [];
    per_function = alist per_function;
    output = [];
    exit_value = 0;
  }

let ir_size (prog : Func.prog) =
  List.fold_left
    (fun acc f ->
      Func.fold_blocks
        (fun (is, ps) b ->
          (is + Iseq.length b.Block.body, ps + Iseq.length b.Block.phis))
        acc f)
    (0, 0) prog.Func.funcs

let span = Span.with_

(* MiniC parse, analysis and lowering; the scalar-replacement rewrite
   sits between two semantic analyses when enabled. *)
let frontend (options : P.options) src : Func.prog =
  let singleton = options.P.singleton_deref in
  if not options.P.scalrep then
    span "minic" (fun () -> Rp_minic.Lower.compile ~opt_singleton_deref:singleton src)
  else
    let sema0 =
      span "minic" (fun () ->
          Rp_minic.Sema.analyse (Rp_minic.Parser.parse_program src))
    in
    let ast, _ = span "scalrep" (fun () -> Rp_scalrep.Transform.program sema0) in
    span "minic" (fun () ->
        let sema = Rp_minic.Sema.analyse ast in
        Rp_minic.Lower.lower ~opt_singleton_deref:singleton sema
          (Rp_minic.Alias.analyse sema))

let construct_engine (options : P.options) =
  match options.P.promote.Promote.engine with
  | Rp_ssa.Incremental.Cytron -> Rp_ssa.Construct.Cytron
  | Rp_ssa.Incremental.Sreedhar_gao -> Rp_ssa.Construct.Sreedhar_gao

let verify (prog : Func.prog) =
  span "ssa.verify" (fun () ->
      List.iter (Rp_ssa.Verify.assert_ok prog.Func.vartab) prog.Func.funcs)

let prepare (options : P.options) src =
  let prog = frontend options src in
  let ir_instrs, _ = ir_size prog in
  let funcs = prog.Func.funcs in
  let trees =
    span "intervals" (fun () ->
        List.map (fun (f : Func.t) -> (f.Func.fname, Intervals.normalise f)) funcs)
  in
  span "ssa.construct" (fun () ->
      List.iter (Rp_ssa.Construct.run ~engine:(construct_engine options)) funcs);
  let _, phis = ir_size prog in
  verify prog;
  span "opt.cleanup" (fun () -> List.iter Rp_opt.Cleanup.run funcs);
  (prog, trees, ir_instrs, phis)

let estimate ~only_unprofiled (prog : Func.prog) trees =
  span "freq" (fun () ->
      List.iter
        (fun (f : Func.t) ->
          if not (only_unprofiled && Freq.has_profile f) then
            match List.assoc_opt f.Func.fname trees with
            | Some tree -> Freq.estimate f tree
            | None -> ())
        prog.Func.funcs)

let promote (options : P.options) (prog : Func.prog) trees =
  let cfg = P.effective_promote options in
  span "promote" (fun () ->
      List.filter_map
        (fun (f : Func.t) ->
          match List.assoc_opt f.Func.fname trees with
          | Some tree ->
              Some (f.Func.fname, Promote.promote_function ~cfg f prog.Func.vartab tree)
          | None -> None)
        prog.Func.funcs)

let finalise (options : P.options) (prog : Func.prog) =
  verify prog;
  span "opt.cleanup" (fun () ->
      List.iter
        (fun f ->
          Rp_opt.Cleanup.run f;
          if options.P.scalrep then begin
            ignore (Rp_opt.Dse.run f);
            Rp_opt.Cleanup.run f
          end)
        prog.Func.funcs);
  verify prog

let pressure ~k (prog : Func.prog) =
  span "pressure" (fun () ->
      List.map (fun f -> Color.analyse f ~k) prog.Func.funcs)

let image (options : P.options) prog : P.image option =
  span "interp.image" (fun () ->
      let budget = P.effective_regs options in
      match options.P.interp with
      | P.Flat -> Some (P.Iflat (Rp_interp.Decode.decode prog))
      | P.Reg -> Some (P.Ireg (Rp_interp.Rcompile.compile ?budget prog))
      | P.Fused -> Some (P.Ireg (Rp_interp.Rcompile.compile ?budget ~fuse:true prog))
      | P.Tree -> None)

let refresh (img : P.image option) =
  span "interp.image" (fun () ->
      match img with
      | Some (P.Iflat d) -> Rp_interp.Decode.refresh d
      | Some (P.Ireg c) -> Rp_interp.Rcompile.refresh c
      | None -> ())

let exec layer (options : P.options) prog (img : P.image option) =
  let fuel = options.P.fuel in
  span layer (fun () ->
      match img with
      | Some (P.Iflat d) -> Rp_interp.Engine.run ~fuel d
      | Some (P.Ireg c) -> Rp_interp.Rengine.run ~fuel c
      | None -> Interp.run ~fuel prog)

(* [Pipeline.run] *)
let run (options : P.options) src : obs * counts =
  let prog, trees, ir_instrs, phis = prepare options src in
  let img = image options prog in
  let baseline = exec "interp.profile_exec" options prog img in
  let measured = options.P.profile = P.Measured in
  if measured then span "interp.apply" (fun () -> Interp.apply_profile prog baseline);
  estimate ~only_unprofiled:measured prog trees;
  let static_before = span "stats" (fun () -> Stats.of_prog prog) in
  let k = P.effective_regs options in
  ignore (pressure ~k prog);
  let per_function = promote options prog trees in
  finalise options prog;
  let static_after = span "stats" (fun () -> Stats.of_prog prog) in
  let after = pressure ~k prog in
  refresh img;
  let final = exec "interp.measure_exec" options prog img in
  if not (Interp.same_behaviour baseline final) then
    failwith "replay: promotion changed behaviour";
  ( {
      static_before;
      static_after;
      dyn_before = counters baseline.Interp.counters;
      dyn_after = counters final.Interp.counters;
      per_function = alist per_function;
      output = final.Interp.output;
      exit_value = final.Interp.exit_value;
    },
    {
      ir_instrs;
      phis;
      promote = stats_of per_function;
      colors_after = List.fold_left (fun a s -> a + s.Color.s_colors) 0 after;
      maxlive_after = List.fold_left (fun a s -> max a s.Color.s_maxlive) 0 after;
      interp_instrs = baseline.Interp.counters.Interp.instrs + final.Interp.counters.Interp.instrs;
    } )

(* [Pipeline.optimise] *)
let optimise (options : P.options) src : obs * counts =
  let prog, trees, ir_instrs, phis = prepare options src in
  estimate ~only_unprofiled:false prog trees;
  let per_function = promote options prog trees in
  finalise options prog;
  let static_after = span "stats" (fun () -> Stats.of_prog prog) in
  ( {
      static_before = Stats.zero;
      static_after;
      dyn_before = [];
      dyn_after = [];
      per_function = alist per_function;
      output = [];
      exit_value = 0;
    },
    {
      ir_instrs;
      phis;
      promote = stats_of per_function;
      colors_after = 0;
      maxlive_after = 0;
      interp_instrs = 0;
    } )
