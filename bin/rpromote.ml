(* rpromote — command-line driver for the register promotion pipeline.

     rpromote run FILE            interpret a MiniC program
     rpromote promote FILE        run the full pipeline, report counts
     rpromote dump FILE           print the IR at each pipeline stage
     rpromote workloads           list the built-in benchmark programs
     rpromote serve               run the compile daemon
     rpromote client FILE        compile through a running daemon

   A FILE of "-" reads from stdin; built-in workload names (go, li,
   ijpeg, ...) are accepted wherever a file is.

   Exit codes: 0 success, 1 input or runtime error (bad source, failed
   run, unreachable daemon), 2 usage error (bad flags or arguments). *)

module P = Rp_core.Pipeline
module I = Rp_interp.Interp
open Rp_ir

(* a bad flag *value* discovered after cmdliner parsing (unknown
   engine name, --jobs 0, ...): usage error, exit code 2 *)
exception Usage_error of string

(* A FILE argument that names no registered workload falls back to the
   filesystem.  A bare lowercase name that also names no file was
   almost certainly a misspelt workload, so it gets the usage-error
   exit (2) and a pointer at the registry instead of a bare ENOENT. *)
let looks_like_workload s =
  s <> ""
  && (s.[0] >= 'a' && s.[0] <= 'z')
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       s

let read_source path =
  match Rp_workloads.Registry.find path with
  | Some w -> w.Rp_workloads.Registry.source
  | None ->
      if path = "-" then In_channel.input_all stdin
      else if looks_like_workload path && not (Sys.file_exists path) then
        raise
          (Usage_error
             (Printf.sprintf
                "unknown workload '%s' (rpromote --list-workloads prints \
                 the registry)"
                path))
      else In_channel.with_open_text path In_channel.input_all

(* run a command body, mapping the pipeline's exceptions to clean
   one-line diagnostics and the exit-code contract above.  A real
   [Invalid_argument] is a bug and must propagate as one. *)
let guarded f =
  try f () with
  | Rp_minic.Lexer.Error m
  | Rp_minic.Parser.Error m
  | Rp_minic.Sema.Error m
  | Rp_minic.Lower.Error m ->
      Printf.eprintf "rpromote: %s\n" m;
      1
  | Rp_interp.Interp.Runtime_error m ->
      Printf.eprintf "rpromote: runtime error: %s\n" m;
      1
  | Rp_interp.Interp.Out_of_fuel budget ->
      Printf.eprintf
        "rpromote: interpreter fuel exhausted (budget %d); raise --fuel\n"
        budget;
      1
  | Sys_error m ->
      Printf.eprintf "rpromote: %s\n" m;
      1
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "rpromote: %s: %s%s\n" fn (Unix.error_message e)
        (if arg = "" then "" else " (" ^ arg ^ ")");
      1
  | Rp_serve.Client.Transport_error m ->
      Printf.eprintf "rpromote: transport error: %s\n" m;
      1
  | Usage_error m ->
      Printf.eprintf "rpromote: %s\n" m;
      2

(* One parsing convention for every enum flag: each type supplies a
   symmetric [of_string]/[to_string] pair, and the CLI maps a rejected
   name to a usage error. *)
let parse_enum ~what of_string s =
  match of_string s with
  | Some v -> v
  | None -> raise (Usage_error (Printf.sprintf "unknown %s: %s" what s))

let engine_of_string =
  parse_enum ~what:"IDF engine" Rp_ssa.Incremental.engine_of_string

let interp_of_string =
  parse_enum ~what:"interpreter engine" P.interp_engine_of_string

let profile_of_string =
  parse_enum ~what:"profile source" P.profile_source_of_string

(* pipeline options from the promote/client flag set *)
let mk_options ~fuel ~profile ~static_profile ~no_store_removal
    ~singleton_deref ~engine ~min_profit ~regs ~scalrep
    ~checkpoints ~trace ~jobs ~interp () =
  (match regs with
  | Some k when k < 1 -> raise (Usage_error "--regs must be at least 1")
  | _ -> ());
  (* a non-finite bound has no JSON encoding, so the daemon could not
     be sent it; every profit is finite, so a large finite bound such
     as -1e308 admits what -inf would *)
  if not (Float.is_finite min_profit) then
    raise (Usage_error "--min-profit must be finite");
  {
    P.promote =
      {
        Rp_core.Promote.engine = engine_of_string engine;
        allow_store_removal = not no_store_removal;
        cost = { Rp_core.Cost_model.min_profit; regs };
        insert_dummies = true;
      };
    profile =
      (* --profile wins; --static-profile is the older spelling *)
      (match profile with
      | Some s -> profile_of_string s
      | None -> if static_profile then P.Static_estimate else P.Measured);
    fuel;
    singleton_deref;
    checkpoints;
    (* the JSON report carries the per-pass timings, so --json
       implies collecting the trace *)
    trace;
    jobs;
    interp = interp_of_string interp;
    scalrep;
  }

(* ------------------------------------------------------------------ *)

let cmd_run path fuel =
 guarded @@ fun () ->
  let src = read_source path in
  let prog = Rp_minic.Lower.compile src in
  let r = I.run ~fuel prog in
  List.iter (fun v -> Printf.printf "%d\n" v) r.I.output;
  Printf.printf "exit value: %d\n" r.I.exit_value;
  Printf.printf "dynamic loads: %d  stores: %d  aliased: %d/%d  instrs: %d\n"
    r.I.counters.I.loads r.I.counters.I.stores r.I.counters.I.aliased_loads
    r.I.counters.I.aliased_stores r.I.counters.I.instrs;
  0

(* write the JSON report; "-" means stdout *)
let emit_json ~label ~dest report =
  let doc = Rp_obs.Json.to_string (P.json_report ~label report) in
  if dest = "-" then print_string doc
  else Out_channel.with_open_text dest (fun oc -> output_string oc doc)

let cmd_promote path fuel profile static_profile no_store_removal
    singleton_deref engine min_profit regs scalrep json trace
    checkpoints jobs deterministic interp =
 guarded @@ fun () ->
  if jobs < 1 then raise (Usage_error "--jobs must be at least 1");
  Rp_obs.Trace.set_deterministic deterministic;
  let src = read_source path in
  let options =
    mk_options ~fuel ~profile ~static_profile ~no_store_removal
      ~singleton_deref ~engine ~min_profit ~regs ~scalrep
      ~checkpoints
      ~trace:(trace || json <> None)
      ~jobs ~interp ()
  in
  let report = P.run ~options src in
  (match json with
  | Some dest -> emit_json ~label:path ~dest report
  | None -> ());
  if trace then begin
    prerr_endline "-- trace ----------------------------------------------";
    Format.eprintf "%a@?" Rp_obs.Trace.pp_spans (Rp_obs.Trace.spans ())
  end;
  let b = report.P.dynamic_before and a = report.P.dynamic_after in
  (* with the JSON document on stdout, keep stdout parseable *)
  if json <> Some "-" then begin
  Printf.printf "behaviour preserved : %b\n" report.P.behaviour_ok;
  Printf.printf "static loads        : %d -> %d\n"
    report.P.static_before.Rp_core.Stats.loads
    report.P.static_after.Rp_core.Stats.loads;
  Printf.printf "static stores       : %d -> %d\n"
    report.P.static_before.Rp_core.Stats.stores
    report.P.static_after.Rp_core.Stats.stores;
  Printf.printf "dynamic loads       : %d -> %d\n" b.I.loads a.I.loads;
  Printf.printf "dynamic stores      : %d -> %d\n" b.I.stores a.I.stores;
  let s = report.P.promote_stats in
  Printf.printf
    "webs                : %d seen, %d promoted (%d no-defs, %d with store \
     removal),\n\
    \                      %d skipped on profit, %d on pressure, %d malformed\n"
    s.Rp_core.Promote.webs_seen s.Rp_core.Promote.webs_promoted
    s.Rp_core.Promote.webs_promoted_no_defs
    s.Rp_core.Promote.webs_store_removal
    s.Rp_core.Promote.webs_skipped_profit
    s.Rp_core.Promote.webs_skipped_pressure
    s.Rp_core.Promote.webs_skipped_malformed;
  let sum get =
    List.fold_left (fun acc fp -> acc + get fp) 0 report.P.pressure
  in
  let colors_b = sum (fun fp -> fp.P.fp_before.Rp_regalloc.Color.s_colors)
  and colors_a = sum (fun fp -> fp.P.fp_after.Rp_regalloc.Color.s_colors) in
  (match report.P.pressure_regs with
  | Some k ->
      Printf.printf
        "pressure            : colors %d -> %d, predicted spills at %d regs \
         %d -> %d\n"
        colors_b colors_a k
        (sum (fun fp ->
             Option.value fp.P.fp_before.Rp_regalloc.Color.s_spills ~default:0))
        (sum (fun fp ->
             Option.value fp.P.fp_after.Rp_regalloc.Color.s_spills ~default:0))
  | None ->
      Printf.printf "pressure            : colors %d -> %d (unbounded)\n"
        colors_b colors_a);
  Printf.printf
    "edits               : %d loads replaced, %d loads inserted, %d stores \
     inserted,\n\
    \                      %d stores deleted, %d register phis added\n"
    s.Rp_core.Promote.loads_replaced s.Rp_core.Promote.loads_inserted
    s.Rp_core.Promote.stores_inserted s.Rp_core.Promote.stores_deleted
    s.Rp_core.Promote.reg_phis_added
  end;
  if report.P.behaviour_ok then 0 else 1

let cmd_baseline path fuel =
 guarded @@ fun () ->
  let src = read_source path in
  let prog, trees = P.prepare src in
  let before = I.run ~fuel prog in
  I.apply_profile prog before;
  ignore (Rp_baselines.Loop_promotion.promote_prog prog trees);
  Rp_opt.Cleanup.run_prog prog;
  let after = I.run ~fuel prog in
  Printf.printf "behaviour preserved : %b\n" (I.same_behaviour before after);
  Printf.printf "dynamic loads       : %d -> %d\n" before.I.counters.I.loads
    after.I.counters.I.loads;
  Printf.printf "dynamic stores      : %d -> %d\n" before.I.counters.I.stores
    after.I.counters.I.stores;
  if I.same_behaviour before after then 0 else 1

let cmd_dump path stage scalrep =
 guarded @@ fun () ->
  let src = read_source path in
  let options = { P.default_options with P.scalrep } in
  let dump prog =
    print_string (Pp.prog_to_string prog);
    0
  in
  match stage with
  | "lowered" -> dump (fst (P.frontend ~options src))
  | "normalised" ->
      let prog = fst (P.frontend ~options src) in
      List.iter
        (fun f -> ignore (Rp_analysis.Intervals.normalise f))
        prog.Func.funcs;
      dump prog
  | "ssa" ->
      let prog, _ = P.prepare ~options src in
      dump prog
  | "promoted" ->
      let report = P.run ~options src in
      dump report.P.prog
  | s ->
      raise
        (Usage_error
           ("unknown stage " ^ s ^ " (want lowered|normalised|ssa|promoted)"))

let cmd_workloads () =
  List.iter
    (fun (w : Rp_workloads.Registry.workload) ->
      Printf.printf "%-8s %s\n" w.Rp_workloads.Registry.name
        w.Rp_workloads.Registry.description)
    Rp_workloads.Registry.all;
  0

(* ------------------------------------------------------------------ *)
(* Compile service *)

module Client = Rp_serve.Client
module Mux = Rp_serve.Mux
module Proto = Rp_serve.Protocol

let cmd_serve socket jobs max_inflight deadline cache_mb cache_entries
    cache_dir store_mb shards =
 guarded @@ fun () ->
  if jobs < 1 then raise (Usage_error "--jobs must be at least 1");
  if max_inflight < 1 then
    raise (Usage_error "--max-inflight must be at least 1");
  if deadline < 0.0 then raise (Usage_error "--deadline must not be negative");
  if cache_mb < 0 then raise (Usage_error "--cache-mb must not be negative");
  if cache_entries < 0 then
    raise (Usage_error "--cache-entries must not be negative");
  if store_mb < 0 then raise (Usage_error "--store-mb must not be negative");
  if shards < 1 then raise (Usage_error "--shards must be at least 1");
  let mk_config ~cache_dir =
    {
      Mux.jobs;
      max_inflight;
      deadline_s = deadline;
      cache_max_bytes = cache_mb * 1024 * 1024;
      cache_max_entries = cache_entries;
      cache_dir;
      store_max_bytes = store_mb * 1024 * 1024;
      wq_high_water = Mux.default_config.Mux.wq_high_water;
      max_pipeline = Mux.default_config.Mux.max_pipeline;
    }
  in
  if shards = 1 then begin
    let m = Mux.create ~config:(mk_config ~cache_dir) () in
    Printf.eprintf "rpromote: serving on %s\n%!" socket;
    Mux.serve_unix m ~path:socket;
    Printf.eprintf "rpromote: daemon stopped\n%!";
    0
  end
  else begin
    let shard_path i = Printf.sprintf "%s.shard%d" socket i in
    (* shard children must fork before this process creates any domain
       (forking a multi-domain OCaml runtime is unsupported), so the
       router's own Mux is created only after every fork *)
    let pids =
      List.init shards (fun i ->
          match Unix.fork () with
          | 0 ->
              let cache_dir =
                Option.map
                  (fun d -> Filename.concat d (Printf.sprintf "shard%d" i))
                  cache_dir
              in
              let m = Mux.create ~config:(mk_config ~cache_dir) () in
              Mux.serve_unix m ~path:(shard_path i);
              Stdlib.exit 0
          | pid -> pid)
    in
    let router =
      Mux.create
        ~shards:(Array.init shards shard_path)
        ~config:
          {
            (mk_config ~cache_dir:None) with
            Mux.max_inflight = max_inflight * shards;
          }
        ()
    in
    Printf.eprintf "rpromote: serving on %s (%d shards)\n%!" socket shards;
    Mux.serve_unix router ~path:socket;
    List.iter
      (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      pids;
    Printf.eprintf "rpromote: daemon stopped\n%!";
    0
  end

let cmd_client socket path op fuel profile static_profile no_store_removal
    singleton_deref engine min_profit regs scalrep json
    deterministic interp deadline =
 guarded @@ fun () ->
  let with_client f =
    let c = Client.connect ~path:socket in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  in
  match op with
  | `Conflict ->
      raise (Usage_error "--ping, --stats and --shutdown are exclusive")
  | `Ping ->
      with_client @@ fun c ->
      if Client.ping c then begin
        print_endline "pong";
        0
      end
      else begin
        prerr_endline "rpromote: daemon did not answer ping";
        1
      end
  | `Stats ->
      with_client @@ fun c ->
      print_string (Rp_obs.Json.to_string (Client.stats c));
      0
  | `Shutdown ->
      with_client @@ fun c ->
      if Client.shutdown c then 0
      else begin
        prerr_endline "rpromote: daemon did not acknowledge shutdown";
        1
      end
  | `Compile -> (
      let path =
        match path with
        | Some p -> p
        | None -> raise (Usage_error "client: FILE required to compile")
      in
      let target =
        match Rp_workloads.Registry.find path with
        | Some w -> `Workload w.Rp_workloads.Registry.name
        | None -> `Source (read_source path)
      in
      let options =
        mk_options ~fuel ~profile ~static_profile ~no_store_removal
          ~singleton_deref ~engine ~min_profit ~regs ~scalrep
          ~checkpoints:false ~trace:true ~jobs:1 ~interp ()
      in
      with_client @@ fun c ->
      match Client.compile c { Proto.target; options; deterministic; deadline_s = deadline } with
      | Proto.Report { cached; report } ->
          (match json with
          | "-" -> print_string report
          | dest ->
              Out_channel.with_open_text dest (fun oc -> output_string oc report));
          Printf.eprintf "rpromote: %s\n" (if cached then "cache hit" else "compiled");
          0
      | Proto.Error { kind; message } ->
          Printf.eprintf "rpromote: %s: %s\n"
            (Proto.error_kind_to_string kind)
            message;
          1
      | Proto.Pong | Proto.Stats_reply _ | Proto.Shutdown_ack ->
          prerr_endline "rpromote: unexpected reply to compile request";
          1)

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing *)

open Cmdliner

(* the exit-code contract, surfaced in every --help page *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:
        "on input or runtime errors: unparseable source, a failed run, an \
         unreachable daemon, a compile request the daemon refused.";
    Cmd.Exit.info 2 ~doc:"on usage errors: unknown flags or bad argument values.";
  ]

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"MiniC source file, '-' for stdin, or a built-in workload name.")

let fuel_arg =
  Arg.(
    value
    & opt int 50_000_000
    & info [ "fuel" ] ~docv:"N" ~doc:"Interpreter instruction budget.")

(* --engine is taken by the IDF engine choice, so the interpreter
   selection travels under its own name *)
let interp_arg =
  Arg.(
    value & opt string "flat"
    & info [ "interp" ] ~docv:"ENGINE"
        ~doc:
          "Interpreter for the profiling and measuring runs: $(b,flat) (the \
           decoded engine, default), $(b,tree) (the reference walker), \
           $(b,reg) (the register-allocated bytecode backend) or $(b,fused) \
           (the register backend with superinstruction fusion). All four \
           produce identical reports.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"SOURCE"
        ~doc:
          "Profile source: $(b,measured) (run the interpreter, the default) \
           or $(b,static) (the loop-depth estimate). Overrides \
           $(b,--static-profile).")

let regs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "regs" ] ~docv:"K"
        ~doc:
          "Register budget for pressure-aware promotion: per interval, webs \
           are promoted in decreasing profit order only while the predicted \
           register pressure stays within $(docv). Also the budget at which \
           the report's predicted spill counts are computed. Without it \
           promotion is unbounded (the paper's behaviour).")

let scalrep_arg =
  Arg.(
    value & flag
    & info [ "scalrep" ]
        ~doc:
          "Scalar replacement of affine array references: before lowering, \
           rewrite eligible $(b,for) loops so array elements addressed at \
           constant offsets from the induction variable (or loop-invariant \
           subscripts) live in scalar cells, with rotation at the latch \
           carrying cross-iteration reuse. The cells are singleton \
           resources, so the ordinary promotion machinery keeps them in \
           registers.")

let run_cmd =
  let doc = "interpret a MiniC program and print its output" in
  Cmd.v (Cmd.info "run" ~doc ~exits) Term.(const cmd_run $ file_arg $ fuel_arg)

let promote_cmd =
  let doc = "run the full register promotion pipeline and report counts" in
  let static_profile =
    Arg.(
      value & flag
      & info [ "static-profile" ]
          ~doc:"Use the static loop-depth frequency estimate instead of a profiling run.")
  in
  let no_store_removal =
    Arg.(
      value & flag
      & info [ "no-store-removal" ] ~doc:"Disable store removal (ablation).")
  in
  let singleton_deref =
    Arg.(
      value & flag
      & info [ "singleton-deref" ]
          ~doc:"Lower unambiguous pointer dereferences as singleton accesses.")
  in
  let engine =
    Arg.(
      value & opt string "cytron"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"IDF engine for the SSA updater: cytron or sreedhar-gao.")
  in
  let min_profit =
    Arg.(
      value & opt float 0.0
      & info [ "min-profit" ] ~docv:"X"
          ~doc:
            "Minimum profit (weighted operation count) to promote a web; \
             must be finite.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the versioned JSON report (counts, per-pass timings, \
             metrics) to $(docv); '-' for stdout, which then suppresses the \
             text table.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Collect per-pass spans and print the trace tree to stderr.")
  in
  let checkpoints =
    Arg.(
      value & flag
      & info [ "checkpoints" ]
          ~doc:
            "Debug mode: run the IR validator and SSA verifier after every \
             pipeline pass; checkpoint cost shows up in the trace.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~env:(Cmd.Env.info "RPROMOTE_JOBS")
          ~doc:
            "Compile $(docv) functions concurrently on OCaml domains. The \
             report is identical whatever $(docv) is; the interpreter runs \
             stay serial.")
  in
  let deterministic =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~env:(Cmd.Env.info "RPROMOTE_DETERMINISTIC")
          ~doc:
            "Zero every clock read so traces and JSON reports are \
             byte-identical across runs and $(b,--jobs) values (used by the \
             CI golden comparison).")
  in
  Cmd.v
    (Cmd.info "promote" ~doc ~exits)
    Term.(
      const cmd_promote $ file_arg $ fuel_arg $ profile_arg $ static_profile
      $ no_store_removal $ singleton_deref $ engine $ min_profit $ regs_arg
      $ scalrep_arg $ json $ trace $ checkpoints $ jobs
      $ deterministic $ interp_arg)

let dump_cmd =
  let doc = "print the IR at a pipeline stage" in
  let stage =
    Arg.(
      value & opt string "promoted"
      & info [ "stage" ] ~docv:"STAGE"
          ~doc:"One of lowered, normalised, ssa, promoted.")
  in
  Cmd.v (Cmd.info "dump" ~doc ~exits)
    Term.(const cmd_dump $ file_arg $ stage $ scalrep_arg)

let baseline_cmd =
  let doc = "run the Lu-Cooper-style loop-based baseline instead" in
  Cmd.v (Cmd.info "baseline" ~doc ~exits) Term.(const cmd_baseline $ file_arg $ fuel_arg)

let workloads_cmd =
  let doc = "list the built-in benchmark workloads" in
  Cmd.v (Cmd.info "workloads" ~doc ~exits) Term.(const cmd_workloads $ const ())

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/rpromote.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "RPROMOTE_SOCKET")
        ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let doc = "run the compile daemon (Unix-domain socket, result cache)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves length-prefixed JSON compile requests over a Unix-domain \
         socket, caching finished reports under a digest of (source, \
         options, report schema). Responses under $(b,--deterministic) \
         requests are byte-identical to one-shot $(b,rpromote promote \
         --json -) runs. Stop it with SIGINT, SIGTERM or $(b,rpromote \
         client --shutdown).";
    ]
  in
  let jobs =
    Arg.(
      value & opt int Rp_serve.Mux.default_config.Rp_serve.Mux.jobs
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Compile pool size: $(docv)-1 worker domains (at least one). \
             Compiles are serialised on the process-wide trace and \
             metrics lock, so the daemon compiles one request at a time \
             for any $(docv).")
  in
  let max_inflight =
    Arg.(
      value
      & opt int Rp_serve.Mux.default_config.Rp_serve.Mux.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Shed compile requests (with a $(i,busy) error) beyond $(docv) \
             in flight.")
  in
  let deadline =
    Arg.(
      value
      & opt float Rp_serve.Mux.default_config.Rp_serve.Mux.deadline_s
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request compile deadline; an expired request is answered \
             with a $(i,timeout) error while the compile finishes into the \
             cache. 0 disables.")
  in
  let cache_mb =
    Arg.(
      value & opt int 64
      & info [ "cache-mb" ] ~docv:"MIB" ~doc:"Result cache budget in MiB.")
  in
  let cache_entries =
    Arg.(
      value
      & opt int Rp_serve.Mux.default_config.Rp_serve.Mux.cache_max_entries
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Result cache entry bound.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~env:(Cmd.Env.info "RPROMOTE_CACHE_DIR")
          ~doc:
            "Persistent result-cache directory (created if missing): \
             deterministic reports are written through to digest-keyed \
             files, so warm hits survive a daemon restart. Off by default \
             (pure in-memory cache). With $(b,--shards), each shard keeps \
             its own subdirectory.")
  in
  let store_mb =
    Arg.(
      value & opt int 256
      & info [ "store-mb" ] ~docv:"MIB"
          ~doc:"Persistent store budget in MiB (with $(b,--cache-dir)).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Fork $(docv) shard daemons and route each compile by its \
             content digest, so cache residency partitions cleanly. The \
             main socket becomes a router; shard $(i,i) listens on \
             $(i,SOCKET).shard$(i,i).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man ~exits)
    Term.(
      const cmd_serve $ socket_arg $ jobs $ max_inflight $ deadline $ cache_mb
      $ cache_entries $ cache_dir $ store_mb $ shards)

let client_cmd =
  let doc = "compile through a running daemon" in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "MiniC source file, '-' for stdin, or a built-in workload name \
             (resolved by the daemon). Required unless $(b,--ping), \
             $(b,--stats) or $(b,--shutdown) is given.")
  in
  let op =
    let ping =
      Arg.(value & flag & info [ "ping" ] ~doc:"Only check the daemon is alive.")
    in
    let stats =
      Arg.(
        value & flag
        & info [ "stats" ]
            ~doc:"Print the daemon's stats report (JSON) and exit.")
    in
    let shutdown =
      Arg.(
        value & flag
        & info [ "shutdown" ] ~doc:"Ask the daemon to shut down gracefully.")
    in
    let combine ping stats shutdown =
      match (ping, stats, shutdown) with
      | true, false, false -> `Ping
      | false, true, false -> `Stats
      | false, false, true -> `Shutdown
      | false, false, false -> `Compile
      | _ -> `Conflict
    in
    Term.(const combine $ ping $ stats $ shutdown)
  in
  let static_profile =
    Arg.(
      value & flag
      & info [ "static-profile" ]
          ~doc:"Use the static loop-depth frequency estimate instead of a profiling run.")
  in
  let no_store_removal =
    Arg.(
      value & flag
      & info [ "no-store-removal" ] ~doc:"Disable store removal (ablation).")
  in
  let singleton_deref =
    Arg.(
      value & flag
      & info [ "singleton-deref" ]
          ~doc:"Lower unambiguous pointer dereferences as singleton accesses.")
  in
  let engine =
    Arg.(
      value & opt string "cytron"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"IDF engine for the SSA updater: cytron or sreedhar-gao.")
  in
  let min_profit =
    Arg.(
      value & opt float 0.0
      & info [ "min-profit" ] ~docv:"X"
          ~doc:
            "Minimum profit (weighted operation count) to promote a web; \
             must be finite.")
  in
  let json =
    Arg.(
      value & opt string "-"
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the daemon's JSON report to $(docv); '-' (default) for stdout.")
  in
  let deterministic =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~env:(Cmd.Env.info "RPROMOTE_DETERMINISTIC")
          ~doc:
            "Ask for a deterministic report: byte-identical to a one-shot \
             $(b,rpromote promote --deterministic --json -) run of the same \
             input and flags.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request deadline override; the daemon answers $(i,timeout) \
             if the compile is not done in time. Defaults to the daemon's \
             own deadline; 0 waits forever.")
  in
  Cmd.v
    (Cmd.info "client" ~doc ~exits)
    Term.(
      const cmd_client $ socket_arg $ file $ op $ fuel_arg $ profile_arg
      $ static_profile $ no_store_removal $ singleton_deref $ engine
      $ min_profit $ regs_arg $ scalrep_arg $ json
      $ deterministic $ interp_arg $ deadline)

let main_cmd =
  let doc = "SSA-based scalar register promotion (Sastry & Ju, PLDI 1998)" in
  (* rpromote --list-workloads: registry discovery without picking a
     subcommand; bare `rpromote` still shows the help page *)
  let list_workloads =
    Arg.(
      value & flag
      & info [ "list-workloads" ]
          ~doc:
            "Print the built-in workload registry (names and one-line \
             descriptions) and exit.")
  in
  let default =
    Term.(
      ret
        (const (fun list ->
             if list then `Ok (cmd_workloads ()) else `Help (`Pager, None))
        $ list_workloads))
  in
  Cmd.group ~default (Cmd.info "rpromote" ~doc ~exits)
    [
      run_cmd;
      promote_cmd;
      baseline_cmd;
      dump_cmd;
      workloads_cmd;
      serve_cmd;
      client_cmd;
    ]

(* term_err 2: cmdliner's own flag-parsing failures land on the same
   usage-error exit code as [Usage_error] *)
let () = exit (Cmd.eval' ~term_err:2 main_cmd)
