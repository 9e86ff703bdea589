(* serve-mixed: an in-process [Mux] daemon over [Mux.loopback], driven
   closed-loop by [clients] threads with one connection and one
   outstanding request each, as build tools that wait for every reply.

   Traffic comes in rounds.  A round asks for every hot-set entry
   [hot_repeats] times, compiles one never-seen variant of every named
   program (cold), and sends one of those cold sources twice in a row
   (the second is its in-flight twin); the seed shuffles each round.
   The hot set is the named programs plus one small source variant of
   each, so it is larger than the in-memory cache: hot requests hit
   memory or the persistent store, cold ones compile and evict.

   The proportions (per round 44 hot, 11 cold, 1 twin: about 79%, 20%
   and 2%) and the 12-entry cache are an assumption, not measured
   build-tool traffic; nothing in the repository records such traffic.
   The cold share is set high enough that a run holds hundreds of cold
   compiles.  Hot requests are the majority, so they set the gated
   latency (the 10th percentile of all requests); cold compile cost
   reaches the gated end-to-end metrics only through requests per
   second.

   Checks: every hot reply must equal [Pipeline.run_fresh_json] of its
   source, computed in set-up; every [cold_sample]-th cold or twin reply
   is checked the same way after the timed window.

   The traced run drives the live daemon the same way, then replays
   the same request stream single-threaded through the public
   protocol, cache, store and pipeline functions with a span around
   each call. *)

open Util
module Mux = Rp_serve.Mux
module Cache = Rp_serve.Cache
module Store = Rp_serve.Store
module Protocol = Rp_serve.Protocol
module Client = Rp_serve.Client
module Obs_guard = Rp_serve.Obs_guard
module J = Rp_obs.Json

let clients = 2
let hot_repeats = 2
let cold_sample = 4

type cls = Hot | Cold | Twin

type item = {
  cls : cls;
  source : string;
  options : P.options;
  hot : int;  (** index into the hot set; -1 for cold and twin *)
}

let config dir =
  {
    Mux.default_config with
    Mux.jobs = clients;
    cache_max_entries = 12 (* below the 22-entry hot set; an assumption, see above *);
    cache_dir = Some dir;
  }

let hot_set () : item array =
  let named = named_inputs () in
  let variant (i : input) = i.source ^ "\nint perfbench_variant;\n" in
  Array.of_list
    (List.map (fun (i : input) -> (i.source, i.options)) named
    @ List.map (fun (i : input) -> (variant i, i.options)) named)
  |> Array.mapi (fun k (source, options) -> { cls = Hot; source; options; hot = k })

(* Round [r] of the stream for [seed]. *)
let round ~seed (hot : item array) r : item list =
  let st = rng ~seed ("round", r) in
  let cold =
    List.mapi
      (fun b (i : input) ->
        {
          cls = Cold;
          source = Printf.sprintf "%s\nint perfbench_cold_%d_%d_%d;\n" i.source seed r b;
          options = i.options;
          hot = -1;
        })
      (named_inputs ())
  in
  let hots = List.concat (List.init hot_repeats (fun _ -> Array.to_list hot)) in
  let items = shuffle st (Array.of_list (hots @ cold)) |> Array.to_list in
  let twin = List.nth cold (Random.State.int st (List.length cold)) in
  List.concat_map
    (fun it -> if it == twin then [ it; { it with cls = Twin } ] else [ it ])
    items

(* The request stream, shared by the client threads. *)
type stream = { m : Mutex.t; mutable pending : item list; mutable next_round : int }

let take ~seed hot s =
  Mutex.lock s.m;
  if s.pending = [] then begin
    s.pending <- round ~seed hot s.next_round;
    s.next_round <- s.next_round + 1
  end;
  let it = List.hd s.pending in
  s.pending <- List.tl s.pending;
  Mutex.unlock s.m;
  it

let request (it : item) : Protocol.compile =
  {
    Protocol.target = `Source it.source;
    options = it.options;
    deterministic = true;
    deadline_s = None;
  }

(* What the daemon must answer: the one-shot report bytes. *)
let fresh (it : item) =
  Obs_guard.locked (fun () ->
      snd
        (P.run_fresh_json ~label:"request" ~deterministic:true
           ~options:{ it.options with P.jobs = 1 } it.source))

(* dynamic loads and stores, scalar plus aliased, of a report *)
let dyn_mem_ops report =
  let field o k = Option.bind o (fun o -> J.member o k) in
  let after = field (field (Result.to_option (J.parse report)) "dynamic") "after" in
  List.fold_left
    (fun acc k -> match field after k with Some (J.Int n) -> acc + n | _ -> acc)
    0
    [ "loads"; "stores"; "aliased_loads"; "aliased_stores" ]

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let work_dir tag =
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Printf.sprintf ".perfbench/%s-%d" tag (Unix.getpid ()) in
  remove_tree dir;
  dir

(* ---------------------------------------------------------------- *)
(* Live daemon *)

type live = {
  mux : Mux.t;
  dir : string;
  hot : item array;
  expected : string array;
  mem_ops : int;  (** over the hot set, read from the daemon's replies *)
}

let setup () : live =
  let hot = hot_set () in
  let expected = Array.map fresh hot in
  let dir = work_dir "serve" in
  let mux = Mux.create ~config:(config dir) () in
  Mux.start mux;
  (* warm-up: every hot entry once, compiled by the daemon *)
  let c = Client.of_conn (Mux.loopback mux) in
  let mem_ops =
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    Array.fold_left
      (fun acc it ->
        match Client.compile c (request it) with
        | Protocol.Report { report; _ } when String.equal report expected.(it.hot) ->
            acc + dyn_mem_ops report
        | _ -> failwith "serve-mixed: warm-up reply differs from run_fresh_json")
      0 hot
  in
  { mux; dir; hot; expected; mem_ops }

let teardown (l : live) =
  Mux.stop l.mux;
  remove_tree l.dir

type sample = { s_cls : cls; secs : float; ok : bool }

type window = {
  samples : sample list;
  to_verify : (item * Digest.t) list;
      (** sampled cold replies, kept as digests so that the benchmark's
          own memory does not grow with throughput *)
  wall : float;
}

let drive ~seed ~seconds (l : live) : window =
  let s = { m = Mutex.create (); pending = []; next_round = 0 } in
  let results = Mutex.create () in
  let samples = ref [] and to_verify = ref [] and cold_seen = ref 0 in
  let t_start = now () in
  let t_end = t_start +. seconds in
  let client () =
    let c = Client.of_conn (Mux.loopback l.mux) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    while now () < t_end do
      let it = take ~seed l.hot s in
      let t0 = now () in
      let reply = try Some (Client.compile c (request it)) with _ -> None in
      let secs = now () -. t0 in
      let ok, keep =
        match (reply, it.cls) with
        | Some (Protocol.Report { report; _ }), Hot ->
            (String.equal report l.expected.(it.hot), None)
        | Some (Protocol.Report { report; _ }), (Cold | Twin) -> (true, Some report)
        | _ -> (false, None)
      in
      Mutex.lock results;
      samples := { s_cls = it.cls; secs; ok } :: !samples;
      (match keep with
      | Some report ->
          incr cold_seen;
          if !cold_seen mod cold_sample = 0 then
            to_verify := (it, Digest.string report) :: !to_verify
      | None -> ());
      Mutex.unlock results
    done
  in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  { samples = !samples; to_verify = !to_verify; wall = now () -. t_start }

let secs_of cls w =
  List.filter_map (fun x -> if x.s_cls = cls then Some x.secs else None) w.samples

(* Counters from the daemon's stats document. *)
let serve_counters (l : live) =
  let doc = Mux.stats_doc l.mux in
  let get path =
    match List.fold_left (fun o k -> Option.bind o (fun o -> J.member o k)) (Some doc) path with
    | Some (J.Int n) -> n
    | _ -> 0
  in
  let cache k = get [ "serve"; "cache"; k ] and resp k = get [ "serve"; "responses"; k ] in
  [
    ("hits", cache "hits");
    ("misses", cache "misses");
    ("store_hits", cache "store_hits");
    ("evictions", cache "evictions");
    ("dedup_joins", resp "dedup_joins");
    ("busy", resp "shed");
    ("timeouts", resp "timeout");
  ]

let delta before after = List.map2 (fun (k, a) (_, b) -> (k, b - a)) before after

let verify_sampled w =
  List.length
    (List.filter (fun (it, d) -> not (Digest.equal (Digest.string (fresh it)) d)) w.to_verify)

let print_class label xs =
  let n = List.length xs in
  if n > 0 then begin
    let tp = tail_percentile n in
    say "%-16s %.3f ms  (median of %d; p%.0f %.3f ms)" (label ^ "_p50_ms") (1000.0 *. median xs) n
      tp (1000.0 *. quantile xs (tp /. 100.0))
  end

let untraced ~seed ~seconds ~setup_s : int * int * metric list =
  let l = setup () in
  let before = serve_counters l in
  let w = drive ~seed ~seconds l in
  let counters = delta before (serve_counters l) in
  teardown l;
  let mismatched = verify_sampled w in
  let all = List.map (fun x -> x.secs) w.samples in
  let n = List.length all in
  let failed = mismatched + List.length (List.filter (fun x -> not x.ok) w.samples) in
  let rps = float_of_int n /. w.wall in
  let p10 = quantile all 0.1 in
  let rss = peak_rss_mb () in
  say "%-16s %.1f req/s  (%d requests in %.2f s, %d connections, closed loop)" "serve_rps" rps n
    w.wall clients;
  say "%-16s %.3f ms  (p10 of %d requests)" "p10_ms" (1000.0 *. p10) n;
  print_class "hot" (secs_of Hot w);
  print_class "cold" (secs_of Cold w);
  print_class "twin" (secs_of Twin w);
  say "%-16s %s" "daemon"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) counters));
  say "%-16s %d count  (hot set, from the daemon's replies)" "dyn_mem_ops" l.mem_ops;
  print_setup setup_s;
  say "%-16s %.1f MiB" "peak_rss_mb" rss;
  say "%-16s %.4f ratio  (%d failed of %d requests; %d cold replies re-checked)" "failed_ratio"
    (float_of_int failed /. float_of_int (max 1 n))
    failed n (List.length w.to_verify);
  ( n,
    failed,
    [
      m "setup_s" (fst setup_s) "s";
      m "peak_rss_mb" rss "MiB";
      m "p10_ms" (1000.0 *. p10) "ms";
      m "ops_per_s" rps "1/s";
      m "mem_ops" (float_of_int l.mem_ops) "count";
    ] )

(* ---------------------------------------------------------------- *)
(* Traced replay *)

(* One request, as the daemon handles it, with the client's encode and
   decode at either end.  [memo] mirrors the daemon's table of framed
   cache-hit replies, which is cleared when it reaches the cache's
   entry bound. *)
let replay_request cache store memo ~max_entries (it : item) : string =
  let span = Span.with_ in
  let payload =
    span "protocol.encode" (fun () ->
        J.to_string ~minify:true (Protocol.request_to_json (Protocol.Compile (request it))))
  in
  let c =
    match
      span "protocol.decode" (fun () -> Result.bind (J.parse payload) Protocol.request_of_json)
    with
    | Ok (Protocol.Compile c) -> c
    | _ -> failwith "serve replay: request did not decode"
  in
  let source = match c.Protocol.target with `Source s -> s | `Workload _ -> assert false in
  let key =
    span "cache.key" (fun () ->
        Cache.key ~source
          ~options_fp:(Protocol.options_fingerprint ~for_key:true c.Protocol.options)
          ~label:"request" ~deterministic:true)
  in
  let serialise cached report =
    span "report.serialise" (fun () ->
        J.to_string ~minify:true (Protocol.response_to_json (Protocol.Report { cached; report })))
  in
  let found =
    match span "cache.find" (fun () -> Cache.find cache key) with
    | Some _ as hit -> hit
    | None -> (
        match span "store.find" (fun () -> Store.find store key) with
        | Some report ->
            span "cache.add" (fun () -> Cache.add cache ~key report);
            Some report
        | None -> None)
  in
  let reply =
    match found with
    | Some report -> (
        match Hashtbl.find_opt memo key with
        | Some p -> p
        | None ->
            let p = serialise true report in
            if Hashtbl.length memo >= max_entries then Hashtbl.reset memo;
            Hashtbl.replace memo key p;
            p)
    | None ->
        let report =
          span "compile" (fun () ->
              snd
                (P.run_fresh_json ~label:"request" ~deterministic:true
                   ~options:{ c.Protocol.options with P.jobs = 1 }
                   source))
        in
        span "cache.add" (fun () -> Cache.add cache ~key report);
        span "store.add" (fun () -> Store.add store ~key report);
        serialise false report
  in
  match span "protocol.decode" (fun () -> Result.bind (J.parse reply) Protocol.response_of_json) with
  | Ok (Protocol.Report { report; _ }) -> report
  | _ -> failwith "serve replay: reply did not decode"

let traced ~seed ~seconds : int * int * metric list =
  (* the live daemon: class latencies and its own counters *)
  let l = setup () in
  let before = serve_counters l in
  let w = drive ~seed ~seconds l in
  let counters = delta before (serve_counters l) in
  let cfg = Mux.config l.mux in
  teardown l;
  let live_failed =
    verify_sampled w + List.length (List.filter (fun x -> not x.ok) w.samples)
  in
  (* the replay: same config, fresh tiers, the same warm-up *)
  let dir = work_dir "replay" in
  let store = Store.open_dir ~max_bytes:cfg.Mux.store_max_bytes dir in
  let cache =
    Cache.create ~max_bytes:cfg.Mux.cache_max_bytes ~max_entries:cfg.Mux.cache_max_entries ()
  in
  let memo = Hashtbl.create 64 in
  let replay = replay_request cache store memo ~max_entries:cfg.Mux.cache_max_entries in
  Array.iter (fun it -> ignore (replay it)) l.hot;
  (* the live window's rounds; odd rounds traced, even rounds timed
     untraced for the overhead *)
  let live_rounds = List.length (List.filter (fun x -> x.s_cls = Twin) w.samples) in
  let rounds = max 2 (min 24 live_rounds) in
  let classes = Hashtbl.create 1024 in
  let failed = ref live_failed and attempted = ref (List.length w.samples) in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 in
  let next_req = ref 0 in
  for r = 0 to rounds - 1 do
    let items = round ~seed l.hot r in
    let run_round () =
      List.iter
        (fun it ->
          incr next_req;
          Span.request := !next_req;
          Hashtbl.replace classes !next_req it.cls;
          incr attempted;
          match Span.with_ "request" (fun () -> replay it) with
          | report ->
              if it.cls = Hot && not (String.equal report l.expected.(it.hot)) then begin
                Printf.eprintf "perfbench: drift: replayed hot reply differs\n%!";
                incr failed
              end
          | exception e ->
              Printf.eprintf "perfbench: replay failed: %s\n%!" (Printexc.to_string e);
              incr failed)
        items
    in
    (* every round starts from a compacted heap, traced or not *)
    Gc.compact ();
    let (), secs = timed (fun () -> if r mod 2 = 1 then Span.traced run_round else run_round ()) in
    if r mod 2 = 1 then traced_s := !traced_s +. secs else untraced_s := !untraced_s +. secs
  done;
  remove_tree dir;
  let p = Span.profile () in
  let roots = Span.roots_named p "request" in
  let class_roots cls = List.filter (fun r -> Hashtbl.find_opt classes r.Span.req = Some cls) roots in
  let self r l = 1000.0 *. fst (Span.self_of p ~root:r.Span.id l) in
  (* per layer: median over the requests that call it *)
  let layer_ms l =
    match List.filter (fun x -> x > 0.0) (List.map (fun r -> self r l) roots) with
    | [] -> 0.0
    | xs -> median xs
  in
  let residual cls =
    let rs = class_roots cls in
    let live = 1000.0 *. median (secs_of cls w) in
    live
    -. List.fold_left
         (fun acc l -> acc +. median (List.map (fun r -> self r l) rs))
         0.0 Layers.serve_layers
  in
  let coverage =
    median (List.map (fun r -> Span.covered p ~root:r.Span.id /. Span.duration r) roots)
  in
  if coverage < Layers.min_coverage then begin
    Printf.eprintf "perfbench: trace coverage %.3f is below %.1f: a layer call is unwrapped\n%!"
      coverage Layers.min_coverage;
    incr failed
  end;
  let c k = float_of_int (List.assoc k counters) in
  let lookups = c "hits" +. c "misses" +. c "store_hits" in
  say "live: %d requests; replay: %d rounds, %d traced requests" (List.length w.samples) rounds
    (List.length roots);
  List.iter (fun cls ->
      let name = match cls with Hot -> "hot" | Cold -> "cold" | Twin -> "twin" in
      let rs = class_roots cls in
      say "  %s: live p50 %.3f ms; replayed layer medians: %s" name
        (1000.0 *. median (secs_of cls w))
        (String.concat ", "
           (List.filter_map
              (fun l ->
                let v = median (List.map (fun r -> self r l) rs) in
                if v > 0.0 then Some (Printf.sprintf "%s %.3f" l v) else None)
              Layers.serve_layers)))
    [ Hot; Cold ];
  let metrics =
    List.map (fun l -> m (Layers.metric_name l "ms") (layer_ms l) "ms") Layers.serve_layers
    @ [
        m "cache.hit_ratio" (if lookups > 0.0 then (c "hits" +. c "store_hits") /. lookups else 0.0) "ratio";
        m "cache.evictions" (c "evictions") "count";
        m "store.hits" (c "store_hits") "count";
        m "mux.dedup_joins" (c "dedup_joins") "count";
        m "mux.busy" (c "busy") "count";
        m "mux.timeouts" (c "timeouts") "count";
        m "mux.residual_hot_ms" (residual Hot) "ms";
        m "mux.residual_cold_ms" (residual Cold) "ms";
        m "trace.coverage" coverage "ratio";
        m "trace.overhead_pct" (100.0 *. ((!traced_s /. !untraced_s) -. 1.0)) "%";
      ]
  in
  (!attempted, !failed, metrics)
