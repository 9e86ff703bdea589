(* The per-layer metrics of the traced run, in the order they are
   printed.  Every workload prints all of them: a layer the workload
   never calls reads 0.  The names are built from the layer lists the
   workloads wrap in spans; [check_benchmark_json] holds them against
   the per_layer list of BENCHMARK.json. *)

(* Layers the batch replays wrap, timed in ms. *)
let batch_layers =
  [ "minic"; "scalrep"; "intervals"; "ssa.construct"; "ssa.verify"; "opt.cleanup";
    "freq"; "promote"; "pressure"; "interp.image"; "interp.profile_exec";
    "interp.measure_exec"; "interp.apply" ]

(* The compile layers whose minor-heap allocation is also reported. *)
let alloc_layers =
  [ "minic"; "scalrep"; "intervals"; "ssa.construct"; "ssa.verify"; "opt.cleanup";
    "freq"; "promote" ]

(* Layers the serve replay wraps, timed in ms. *)
let serve_layers =
  [ "protocol.decode"; "protocol.encode"; "cache.key"; "cache.find"; "cache.add";
    "store.find"; "store.add"; "compile"; "report.serialise" ]

(* "minic" -> "minic.ms", "ssa.verify" -> "ssa.verify_ms" *)
let metric_name layer suffix =
  if String.contains layer '.' then layer ^ "_" ^ suffix else layer ^ "." ^ suffix

let batch_counts =
  [ ("minic.ir_instrs", "count"); ("ssa.phis", "count");
    ("promote.webs_seen", "count"); ("promote.webs_promoted", "count");
    ("promote.promoted_ratio", "ratio"); ("promote.loads_replaced", "count");
    ("promote.loads_inserted", "count"); ("promote.stores_inserted", "count");
    ("promote.stores_deleted", "count"); ("pressure.colors_after", "count");
    ("pressure.maxlive_after", "count"); ("interp.instrs", "count");
    ("interp.minstr_per_s", "Minstr/s") ]

let serve_counts =
  [ ("cache.hit_ratio", "ratio"); ("cache.evictions", "count"); ("store.hits", "count");
    ("mux.dedup_joins", "count"); ("mux.busy", "count"); ("mux.timeouts", "count");
    ("mux.residual_hot_ms", "ms"); ("mux.residual_cold_ms", "ms") ]

let trace_health = [ ("trace.coverage", "ratio"); ("trace.overhead_pct", "%") ]

let all : (string * string) list =
  List.map (fun l -> (metric_name l "ms", "ms")) batch_layers
  @ List.map (fun l -> (metric_name l "minor_mwords", "Mwords")) alloc_layers
  @ batch_counts
  @ List.map (fun l -> (metric_name l "ms", "ms")) serve_layers
  @ serve_counts @ trace_health

(* A traced run's coverage below this means a layer call is unwrapped. *)
let min_coverage = 0.9

(* [measured] in canonical order, zero-filled; a name outside the
   canonical list is a benchmark bug. *)
let complete (measured : Util.metric list) : Util.metric list =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.Util.mname all) then
        failwith ("perfbench: unlisted per-layer metric " ^ x.Util.mname))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> String.equal x.Util.mname name) measured with
      | Some x -> x
      | None -> Util.m name 0.0 unit_)
    all

(* BENCHMARK.json's per_layer list must name [all], in any order, with
   the same units. *)
let check_benchmark_json path =
  let module J = Rp_obs.Json in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let str o k = match J.member o k with Some (J.Str s) -> s | _ -> "" in
  let listed =
    match Result.map (fun d -> J.member d "per_layer") (J.parse text) with
    | Ok (Some (J.Arr xs)) -> List.map (fun o -> (str o "name", str o "unit")) xs
    | _ -> failwith ("perfbench: no per_layer list in " ^ path)
  in
  if List.sort compare listed <> List.sort compare all then
    failwith ("perfbench: the per_layer list of " ^ path ^ " differs from Layers.all")
