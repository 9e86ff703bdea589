(* End-to-end tests of the compile daemon ([Mux]) over its loopback
   transport, a socketpair into the select loop: concurrent clients,
   cache rounds, byte-identity with direct pipeline runs, poisoned
   requests, malformed frames, shedding, deadlines, shutdown, frame
   reassembly, pipelining order, single-flight dedup, the persistent
   store across restarts, and the shard router — without a socket
   path. *)

module Proto = Rp_serve.Protocol
module Mux = Rp_serve.Mux
module Client = Rp_serve.Client
module Cache = Rp_serve.Cache
module P = Rp_core.Pipeline
module J = Rp_obs.Json
module R = Rp_workloads.Registry

let options = { P.default_options with trace = true }

let request (w : R.workload) =
  { Proto.target = `Workload w.R.name; options; deterministic = true; deadline_s = None }

(* small deterministic compile requests; [options] (trace on) is
   reserved for the byte-identity checks *)
let mux_options = { P.default_options with P.trace = false; fuel = 10_000_000 }

let mk_compile ?deadline_s ?(options = mux_options) target =
  { Proto.target; options; deterministic = true; deadline_s }

let with_mux ?config ?shards f =
  let mx = Mux.create ?config ?shards () in
  Mux.start mx;
  Fun.protect ~finally:(fun () -> Mux.stop mx) (fun () -> f mx)

let with_client mx f =
  let c = Client.of_conn (Mux.loopback mx) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp_mux_test_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let response_label = function
  | Proto.Report { cached; _ } ->
      if cached then "Report(cached)" else "Report(fresh)"
  | Proto.Error { kind; message } ->
      Printf.sprintf "Error(%s, %s)" (Proto.error_kind_to_string kind) message
  | Proto.Pong -> "Pong"
  | Proto.Stats_reply _ -> "Stats_reply"
  | Proto.Shutdown_ack -> "Shutdown_ack"

let framed_label = function
  | Proto.Msg r -> response_label r
  | Proto.End -> "End"
  | Proto.Garbled m -> "Garbled " ^ m

(* one request as its wire bytes: length prefix + JSON payload *)
let frame_bytes (r : Proto.request) =
  let payload = J.to_string ~minify:true (Proto.request_to_json r) in
  let frame = Bytes.create (4 + String.length payload) in
  Bytes.set_int32_be frame 0 (Int32.of_int (String.length payload));
  Bytes.blit_string payload 0 frame 4 (String.length payload);
  frame

(* an integer at [path] under the stats document's "serve" section *)
let serve_stat mx path =
  match
    List.fold_left
      (fun o k -> Option.bind o (fun o -> J.member o k))
      (J.member (Mux.stats_doc mx) "serve")
      path
  with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "stats: no serve.%s" (String.concat "." path)

(* ------------------------------------------------------------------ *)
(* The headline test: 4 concurrent clients over every named workload.
   Round 1 (cold) must return fresh reports byte-identical to direct
   [Pipeline.run_fresh_json] runs; round 2 (warm) must serve the same
   bytes from the cache. *)

let test_rounds () =
  (* the oracle: direct pipeline runs, computed sequentially up front
     (run_fresh_json owns the process-global obs state) *)
  let expected =
    List.map
      (fun (w : R.workload) ->
        let _, s =
          P.run_fresh_json ~label:w.R.name ~deterministic:true ~options
            w.R.source
        in
        (w.R.name, s))
      R.all
  in
  with_mux @@ fun mx ->
  let clients = 4 in
  (* partition the workloads round-robin over the clients *)
  let parts = Array.make clients [] in
  List.iteri
    (fun i w -> parts.(i mod clients) <- w :: parts.(i mod clients))
    R.all;
  let round () =
    let results = Array.make clients [] in
    let threads =
      List.init clients (fun i ->
          Thread.create
            (fun () ->
              with_client mx @@ fun c ->
              results.(i) <-
                List.map
                  (fun (w : R.workload) ->
                    ( w.R.name,
                      try Ok (Client.compile c (request w)) with e -> Error e ))
                  parts.(i))
            ())
    in
    List.iter Thread.join threads;
    List.concat (Array.to_list results)
  in
  let check_round ~name ~want_cached responses =
    Alcotest.(check int) (name ^ ": all answered") (List.length R.all)
      (List.length responses);
    List.iter
      (fun (wname, r) ->
        match r with
        | Error e -> Alcotest.failf "%s %s: %s" name wname (Printexc.to_string e)
        | Ok (Proto.Report { cached; report }) ->
            Alcotest.(check bool) (name ^ " " ^ wname ^ ": cached") want_cached
              cached;
            Alcotest.(check string)
              (name ^ " " ^ wname ^ ": byte-identical to direct run")
              (List.assoc wname expected) report
        | Ok r -> Alcotest.failf "%s %s: %s" name wname (response_label r))
      responses
  in
  check_round ~name:"round1" ~want_cached:false (round ());
  check_round ~name:"round2" ~want_cached:true (round ());
  let s = Cache.stats (Mux.cache mx) in
  Alcotest.(check int) "round2 all hits" (List.length R.all) s.Cache.hits;
  Alcotest.(check int) "round1 all misses" (List.length R.all) s.Cache.misses

(* ------------------------------------------------------------------ *)

let test_poisoned () =
  with_mux @@ fun mx ->
  with_client mx @@ fun c ->
  (* a lexer error must come back as a structured Bad_input response *)
  (match
     Client.compile c
       { Proto.target = `Source "int main() { return $; }";
         options; deterministic = true; deadline_s = None }
   with
  | Proto.Error { kind = Proto.Bad_input; _ } -> ()
  | r -> Alcotest.failf "poisoned request: %s" (response_label r));
  (* ... and the daemon (and this very connection) keeps serving *)
  (match
     Client.compile c
       { Proto.target = `Source "int main() { return 0; }";
         options; deterministic = true; deadline_s = None }
   with
  | Proto.Report { cached = false; _ } -> ()
  | r -> Alcotest.failf "after poison: %s" (response_label r));
  Alcotest.(check bool) "ping after poison" true (Client.ping c)

let test_fuel_exhausted () =
  with_mux @@ fun mx ->
  with_client mx @@ fun c ->
  (* an infinite loop under a tiny budget: a structured fuel_exhausted
     error, distinct from Bad_input, naming the budget *)
  (match
     Client.compile c
       { Proto.target = `Source "int main() { while (1) { } return 0; }";
         options = { options with P.fuel = 10_000 };
         deterministic = true; deadline_s = None }
   with
  | Proto.Error { kind = Proto.Fuel_exhausted; message } ->
      Alcotest.(check bool) "message names the budget" true
        (let sub = "10000" in
         let n = String.length message and m = String.length sub in
         let rec at i = i + m <= n && (String.sub message i m = sub || at (i + 1)) in
         at 0)
  | r -> Alcotest.failf "fuel exhaustion: %s" (response_label r));
  (* the same program with enough fuel on the same connection works *)
  (match
     Client.compile c
       { Proto.target = `Source "int main() { return 0; }";
         options; deterministic = true; deadline_s = None }
   with
  | Proto.Report _ -> ()
  | r -> Alcotest.failf "after fuel exhaustion: %s" (response_label r));
  Alcotest.(check bool) "ping after fuel exhaustion" true (Client.ping c)

let test_unknown_workload () =
  with_mux @@ fun mx ->
  with_client mx @@ fun c ->
  match
    Client.compile c
      { Proto.target = `Workload "no-such-workload"; options;
        deterministic = true; deadline_s = None }
  with
  | Proto.Error { kind = Proto.Bad_input; _ } -> ()
  | r -> Alcotest.failf "unknown workload: %s" (response_label r)

(* A generated workload past [Registry.max_generated], sent as a raw
   frame: generating it would exhaust the daemon's heap, so it must be
   refused as an unknown workload and the daemon must keep serving. *)
let test_oversized_generated_workload () =
  with_mux @@ fun mx ->
  let conn = Mux.loopback mx in
  Fun.protect ~finally:(fun () -> conn.Proto.close ()) @@ fun () ->
  Proto.write_frame conn
    (J.to_string ~minify:true
       (Proto.request_to_json
          (Proto.Compile (mk_compile (`Workload "gen200000000")))));
  (match Proto.recv_response conn with
  | Proto.Msg (Proto.Error { kind = Proto.Bad_input; _ }) -> ()
  | r -> Alcotest.failf "gen200000000: %s" (framed_label r));
  with_client mx @@ fun c ->
  Alcotest.(check bool) "ping after gen200000000" true (Client.ping c)

let test_malformed_frame () =
  with_mux @@ fun mx ->
  let conn = Mux.loopback mx in
  Fun.protect ~finally:(fun () -> conn.Proto.close ()) @@ fun () ->
  (* a negative length prefix: answered with a protocol error, then
     the connection is closed (the stream is desynchronised); the
     oversized prefix is "mux oversized frame poisons stream" *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (-1l);
  conn.Proto.output hdr 0 4;
  (match Proto.recv_response conn with
  | Proto.Msg (Proto.Error { kind = Proto.Protocol_error; _ }) -> ()
  | r -> Alcotest.failf "bad frame: %s" (framed_label r));
  (match Proto.recv_response conn with
  | Proto.End -> ()
  | _ -> Alcotest.fail "connection not closed after framing violation");
  (* the daemon survived: a fresh connection works *)
  with_client mx @@ fun c ->
  Alcotest.(check bool) "ping after bad frame" true (Client.ping c)

let test_garbled_json () =
  with_mux @@ fun mx ->
  let conn = Mux.loopback mx in
  Fun.protect ~finally:(fun () -> conn.Proto.close ()) @@ fun () ->
  (* well-framed garbage: an error response, and the same connection
     keeps working *)
  Proto.write_frame conn "this is not json";
  (match Proto.recv_response conn with
  | Proto.Msg (Proto.Error { kind = Proto.Protocol_error; _ }) -> ()
  | r -> Alcotest.failf "garbage payload: %s" (framed_label r));
  Proto.send_request conn Proto.Ping;
  match Proto.recv_response conn with
  | Proto.Msg Proto.Pong -> ()
  | _ -> Alcotest.fail "connection did not survive a garbled payload"

let test_busy_shedding () =
  (* max_inflight 0: every uncached compile is shed immediately *)
  with_mux
    ~config:{ Mux.default_config with Mux.max_inflight = 0 }
  @@ fun mx ->
  with_client mx @@ fun c ->
  (match Client.compile c (request (List.hd R.all)) with
  | Proto.Error { kind = Proto.Busy; _ } -> ()
  | r -> Alcotest.failf "expected Busy, got %s" (response_label r));
  Alcotest.(check bool) "ping while shedding" true (Client.ping c)

let test_deadline () =
  with_mux
    ~config:{ Mux.default_config with Mux.deadline_s = 0.005 }
  @@ fun mx ->
  with_client mx @@ fun c ->
  let w = List.hd R.all in
  (* a full pipeline run takes far longer than 5 ms *)
  (match Client.compile c (request w) with
  | Proto.Error { kind = Proto.Timeout; _ } -> ()
  | r -> Alcotest.failf "expected Timeout, got %s" (response_label r));
  (* the daemon answers while the abandoned compile still runs *)
  Alcotest.(check bool) "ping during background compile" true (Client.ping c);
  (* the background worker finishes into the cache *)
  let deadline = Unix.gettimeofday () +. 60.0 in
  while serve_stat mx [ "inflight" ] > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check int) "background compile drained" 0
    (serve_stat mx [ "inflight" ]);
  match Client.compile c (request w) with
  | Proto.Report { cached = true; _ } -> ()
  | r -> Alcotest.failf "expected cached Report, got %s" (response_label r)

let test_nondet_bypasses_cache () =
  with_mux @@ fun mx ->
  with_client mx @@ fun c ->
  let req =
    { Proto.target = `Source "int main() { return 0; }";
      options; deterministic = false; deadline_s = None }
  in
  (* a non-deterministic report carries wall-clock timings, so neither
     request may be answered from the cache, and neither may fill it *)
  List.iter
    (fun name ->
      match Client.compile c req with
      | Proto.Report { cached = false; _ } -> ()
      | r -> Alcotest.failf "%s: %s" name (response_label r))
    [ "first non-det compile"; "second non-det compile" ];
  Alcotest.(check int) "cache untouched" 0
    (Cache.stats (Mux.cache mx)).Cache.entries;
  (* the same source requested deterministically is cached as usual *)
  (match Client.compile c { req with Proto.deterministic = true; deadline_s = None } with
  | Proto.Report { cached = false; _ } -> ()
  | r -> Alcotest.failf "det compile: %s" (response_label r));
  match Client.compile c { req with Proto.deterministic = true; deadline_s = None } with
  | Proto.Report { cached = true; _ } -> ()
  | r -> Alcotest.failf "det recompile: %s" (response_label r)

let test_stats () =
  with_mux @@ fun mx ->
  with_client mx @@ fun c ->
  Alcotest.(check bool) "ping" true (Client.ping c);
  let doc = Client.stats c in
  (match J.member doc "schema_version" with
  | Some (J.Int v) ->
      Alcotest.(check int) "stats schema version"
        Rp_obs.Report.schema_version v
  | _ -> Alcotest.fail "stats: no schema_version");
  let serve =
    match J.member doc "serve" with
    | Some s -> s
    | None -> Alcotest.fail "stats: no serve section"
  in
  (match J.member serve "cache" with
  | Some _ -> ()
  | None -> Alcotest.fail "stats: no cache stats");
  (* descriptor pressure is counted, and an idle daemon has seen none *)
  List.iter
    (fun k ->
      Alcotest.(check int) ("connections." ^ k) 0
        (serve_stat mx [ "connections"; k ]))
    [ "accept_errors"; "refused" ]

let test_shutdown () =
  with_mux @@ fun mx ->
  let busy = Mux.loopback mx and ctl = Mux.loopback mx in
  Fun.protect
    ~finally:(fun () ->
      busy.Proto.close ();
      ctl.Proto.close ())
  @@ fun () ->
  (* a compile still running when the shutdown lands: its cache miss
     shows the loop has dispatched it, and the loop finishes that
     dispatch before it can read the Shutdown below *)
  Proto.send_request busy
    (Proto.Compile (mk_compile (`Workload (R.generated 240).R.name)));
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (Cache.stats (Mux.cache mx)).Cache.misses = 0
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.001
  done;
  (* Shutdown and a compile in one write, so the loop reads both in
     one pass: the compile is decoded after the drain has begun *)
  let frames =
    Bytes.cat (frame_bytes Proto.Shutdown)
      (frame_bytes
         (Proto.Compile (mk_compile (`Source "int main() { return 0; }"))))
  in
  ctl.Proto.output frames 0 (Bytes.length frames);
  let next name conn want =
    let r = Proto.recv_response conn in
    if not (want r) then Alcotest.failf "%s: %s" name (framed_label r)
  in
  next "shutdown ack" ctl (function
    | Proto.Msg Proto.Shutdown_ack -> true
    | _ -> false);
  Alcotest.(check bool) "flag set" true (Mux.shutting_down mx);
  next "compile during drain" ctl (function
    | Proto.Msg (Proto.Error { kind = Proto.Shutting_down; _ }) -> true
    | _ -> false);
  next "idle connection retired" ctl (function Proto.End -> true | _ -> false);
  (* the in-flight compile is drained and answered, then retired *)
  next "in-flight compile answered" busy (function
    | Proto.Msg (Proto.Report { cached = false; _ }) -> true
    | _ -> false);
  next "drained connection retired" busy (function
    | Proto.End -> true
    | _ -> false)

let test_stop_idempotent () =
  with_mux @@ fun mx ->
  with_client mx @@ fun c ->
  Alcotest.(check bool) "ping" true (Client.ping c);
  (* explicit stop, then the with_mux finally stops again: the
     teardown must be claimed exactly once, never drained twice *)
  Mux.stop mx;
  Mux.stop mx

(* ------------------------------------------------------------------ *)
(* The register budget is part of the cache key: requests differing
   only in [regs] change the report bytes, so they must miss each
   other's entries — and each budget's own entry must still hit. *)

let test_regs_splits_cache () =
  let w = Option.get (R.find "compr") in
  (* oracle for the budgeted report, computed before the daemon owns
     the process-global obs state *)
  let _, direct6 =
    P.run_fresh_json ~label:w.R.name ~deterministic:true
      ~options:(Helpers.with_regs (Some 6) options)
      w.R.source
  in
  with_mux @@ fun mx ->
  with_client mx @@ fun c ->
  let req regs =
    {
      Proto.target = `Workload w.R.name;
      options = Helpers.with_regs regs options;
      deterministic = true;
      deadline_s = None;
    }
  in
  let expect name want_cached r =
    match r with
    | Proto.Report { cached; report } ->
        Alcotest.(check bool) (name ^ ": cached") want_cached cached;
        report
    | r -> Alcotest.failf "%s: %s" name (response_label r)
  in
  let unbounded = expect "unbounded fresh" false (Client.compile c (req None)) in
  let budget6 =
    expect "regs 6 fresh, not a cross-hit" false (Client.compile c (req (Some 6)))
  in
  let budget8 =
    expect "regs 8 fresh, not a cross-hit" false (Client.compile c (req (Some 8)))
  in
  Alcotest.(check bool) "the budget changes the report bytes" true
    (unbounded <> budget6);
  Alcotest.(check string) "regs 6 byte-identical to the direct run" direct6
    budget6;
  (* warm round: every budget hits its own entry with stable bytes *)
  Alcotest.(check string) "unbounded warm" unbounded
    (expect "unbounded warm" true (Client.compile c (req None)));
  Alcotest.(check string) "regs 6 warm" budget6
    (expect "regs 6 warm" true (Client.compile c (req (Some 6))));
  Alcotest.(check string) "regs 8 warm" budget8
    (expect "regs 8 warm" true (Client.compile c (req (Some 8))))

(* ------------------------------------------------------------------ *)
(* The event loop itself: frame reassembly, pipelining order,
   deadlines, single-flight dedup, stream poisoning, the persistent
   store across restarts, and the shard router. *)

let test_mux_pipelined_order () =
  with_mux @@ fun mx ->
  let conn = Mux.loopback mx in
  Fun.protect ~finally:(fun () -> conn.Proto.close ()) @@ fun () ->
  (* a slow compile followed by a ping on the same connection: the
     ping's answer is ready instantly, but responses are strictly
     request-ordered, so Pong must arrive after the Report *)
  Proto.send_request conn
    (Proto.Compile (mk_compile (`Workload (R.generated 60).R.name)));
  Proto.send_request conn Proto.Ping;
  (match Proto.recv_response conn with
  | Proto.Msg (Proto.Report { cached = false; _ }) -> ()
  | Proto.Msg r -> Alcotest.failf "first response: %s" (response_label r)
  | _ -> Alcotest.fail "first response: stream ended");
  match Proto.recv_response conn with
  | Proto.Msg Proto.Pong -> ()
  | Proto.Msg r -> Alcotest.failf "second response: %s" (response_label r)
  | _ -> Alcotest.fail "second response: stream ended"

let test_mux_slow_loris () =
  with_mux @@ fun mx ->
  let conn = Mux.loopback mx in
  Fun.protect ~finally:(fun () -> conn.Proto.close ()) @@ fun () ->
  let frame = frame_bytes Proto.Ping in
  (* dribble half the frame a byte at a time; the daemon must buffer
     the fragments without blocking anyone else *)
  let half = Bytes.length frame / 2 in
  for i = 0 to half - 1 do
    conn.Proto.output frame i 1;
    if i mod 5 = 0 then Thread.delay 0.001
  done;
  (* other clients are served while the loris holds its half-frame *)
  with_client mx (fun c ->
      Alcotest.(check bool) "ping during partial frame" true (Client.ping c));
  for i = half to Bytes.length frame - 1 do
    conn.Proto.output frame i 1
  done;
  match Proto.recv_response conn with
  | Proto.Msg Proto.Pong -> ()
  | Proto.Msg r -> Alcotest.failf "loris reply: %s" (response_label r)
  | _ -> Alcotest.fail "loris reply: stream ended"

let test_mux_hangup_mid_response () =
  with_mux @@ fun mx ->
  (* enqueue a compile, then vanish before reading the answer: the
     daemon's write hits a dead peer and must shrug it off *)
  let conn = Mux.loopback mx in
  Proto.send_request conn
    (Proto.Compile (mk_compile (`Source "int main() { return 41; }")));
  conn.Proto.close ();
  (* give the abandoned response time to be computed and written *)
  Thread.delay 0.3;
  with_client mx @@ fun c ->
  Alcotest.(check bool) "ping after hangup" true (Client.ping c);
  match
    Client.compile c (mk_compile (`Source "int main() { return 42; }"))
  with
  | Proto.Report _ -> ()
  | r -> Alcotest.failf "compile after hangup: %s" (response_label r)

let test_mux_per_request_deadline () =
  with_mux @@ fun mx ->
  with_client mx @@ fun c ->
  (* a 1 ms budget on a generated workload: expired long before the
     compile lands, overriding the (huge) server default *)
  (match
     Client.compile c
       (mk_compile ~deadline_s:0.001 (`Workload (R.generated 120).R.name))
   with
  | Proto.Error { kind = Proto.Timeout; _ } -> ()
  | r -> Alcotest.failf "tiny deadline: %s" (response_label r));
  (* deadline_s = 0 means wait forever *)
  match
    Client.compile c
      (mk_compile ~deadline_s:0.0 (`Source "int main() { return 7; }"))
  with
  | Proto.Report { cached = false; _ } -> ()
  | r -> Alcotest.failf "wait-forever deadline: %s" (response_label r)

(* A compile whose length its own program sets: a counted loop of six
   million iterations runs in each of the pipeline's two interpreter
   passes, about two seconds in all, well inside the request's fuel. *)
let occupying_compile =
  mk_compile
    ~options:{ mux_options with P.fuel = 100_000_000 }
    (`Source
      "int main() { int i; int s = 0; for (i = 0; i < 6000000; i++) { s = \
       s + i; } return s; }")

let test_mux_deadline_while_queued () =
  (* jobs = 2 gives the pool a single worker domain: the first compile
     occupies it, so the second expires without ever starting.  The
     mux gets 200 ms to hand the first compile to the worker, and the
     second request's 300 ms deadline runs out more than a second
     before the first compile can finish *)
  with_mux ~config:{ Mux.default_config with Mux.jobs = 2 } @@ fun mx ->
  let slow = Mux.loopback mx and fast = Mux.loopback mx in
  Fun.protect
    ~finally:(fun () ->
      slow.Proto.close ();
      fast.Proto.close ())
  @@ fun () ->
  Proto.send_request slow (Proto.Compile occupying_compile);
  Thread.delay 0.2 (* let the worker pick it up *);
  Proto.send_request fast
    (Proto.Compile
       (mk_compile ~deadline_s:0.3 (`Source "int main() { return 9; }")));
  (match Proto.recv_response fast with
  | Proto.Msg (Proto.Error { kind = Proto.Timeout; _ }) -> ()
  | Proto.Msg r -> Alcotest.failf "queued request: %s" (response_label r)
  | _ -> Alcotest.fail "queued request: stream ended");
  match Proto.recv_response slow with
  | Proto.Msg (Proto.Report _) -> ()
  | Proto.Msg r -> Alcotest.failf "occupying compile: %s" (response_label r)
  | _ -> Alcotest.fail "occupying compile: stream ended"

let test_mux_dedup_single_flight () =
  with_mux @@ fun mx ->
  let conn = Mux.loopback mx in
  Fun.protect ~finally:(fun () -> conn.Proto.close ()) @@ fun () ->
  (* two identical deterministic requests back to back: the second is
     scanned while the first compiles, so it must join the in-flight
     future instead of burning a second worker *)
  let req = Proto.Compile (mk_compile (`Workload (R.generated 120).R.name)) in
  Proto.send_request conn req;
  Proto.send_request conn req;
  let report_of name =
    match Proto.recv_response conn with
    | Proto.Msg (Proto.Report { report; _ }) -> report
    | Proto.Msg r -> Alcotest.failf "%s: %s" name (response_label r)
    | _ -> Alcotest.failf "%s: stream ended" name
  in
  let r1 = report_of "first" in
  let r2 = report_of "second" in
  Alcotest.(check string) "joined twin serves identical bytes" r1 r2;
  Alcotest.(check int) "exactly one dedup join" 1
    (serve_stat mx [ "responses"; "dedup_joins" ])

let test_mux_oversized_poisons () =
  with_mux @@ fun mx ->
  let conn = Mux.loopback mx in
  Fun.protect ~finally:(fun () -> conn.Proto.close ()) @@ fun () ->
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Proto.max_frame + 1));
  conn.Proto.output hdr 0 4;
  (match Proto.recv_response conn with
  | Proto.Msg (Proto.Error { kind = Proto.Protocol_error; _ }) -> ()
  | Proto.Msg r -> Alcotest.failf "oversized frame: %s" (response_label r)
  | Proto.End -> Alcotest.fail "oversized frame: closed without an error"
  | Proto.Garbled m -> Alcotest.failf "oversized frame: garbled: %s" m);
  (match Proto.recv_response conn with
  | Proto.End -> ()
  | _ -> Alcotest.fail "stream not poisoned after oversized frame");
  with_client mx @@ fun c ->
  Alcotest.(check bool) "daemon survives" true (Client.ping c)

let test_mux_store_restart () =
  with_tmp_dir @@ fun dir ->
  let config = { Mux.default_config with Mux.cache_dir = Some dir } in
  let req = mk_compile (`Source "int main() { return 40 + 2; }") in
  let report1 =
    with_mux ~config @@ fun mx ->
    with_client mx @@ fun c ->
    match Client.compile c req with
    | Proto.Report { cached = false; report } -> report
    | r -> Alcotest.failf "first daemon: %s" (response_label r)
  in
  (* a fresh daemon over the same directory: warm from request one,
     byte-identical across the restart *)
  with_mux ~config @@ fun mx ->
  with_client mx @@ fun c ->
  match Client.compile c req with
  | Proto.Report { cached = true; report } ->
      Alcotest.(check string) "bytes survive the restart" report1 report
  | r -> Alcotest.failf "after restart: %s" (response_label r)

(* One compile request, answered as the raw payload of its response
   frame. *)
let raw_compile mx req =
  let conn = Mux.loopback mx in
  Fun.protect ~finally:(fun () -> conn.Proto.close ()) @@ fun () ->
  Proto.write_frame conn
    (J.to_string ~minify:true (Proto.request_to_json (Proto.Compile req)));
  match Proto.read_frame conn with
  | Proto.Frame p -> p
  | Proto.Eof -> Alcotest.fail "no response frame"
  | Proto.Bad m -> Alcotest.failf "bad response frame: %s" m

(* Warm hits come from the cache alone: a memory hit and a hit
   promoted from the store send exactly the framing of the compiled
   report as a cached [Report], and the cache accounts for the payload
   it serves. *)
let test_mux_warm_hits_one_map () =
  with_tmp_dir @@ fun dir ->
  let config = { Mux.default_config with Mux.cache_dir = Some dir } in
  let source = "int main() { return 40 + 2; }" in
  let req = mk_compile (`Source source) in
  let key =
    Cache.key ~source
      ~options_fp:(Proto.options_fingerprint ~for_key:true mux_options)
      ~label:"request" ~deterministic:true
  in
  let want =
    with_mux ~config @@ fun mx ->
    let report =
      match
        Result.bind (J.parse (raw_compile mx req)) Proto.response_of_json
      with
      | Ok (Proto.Report { cached = false; report }) -> report
      | Ok r -> Alcotest.failf "cold compile: %s" (response_label r)
      | Error m -> Alcotest.failf "cold compile: %s" m
    in
    let want =
      J.to_string ~minify:true
        (Proto.response_to_json (Proto.Report { cached = true; report }))
    in
    Alcotest.(check string) "memory hit bytes" want (raw_compile mx req);
    let s = Cache.stats (Mux.cache mx) in
    Alcotest.(check int) "one memory hit" 1 s.Cache.hits;
    let alone = Cache.create () in
    Cache.add alone ~key want;
    Alcotest.(check int) "cache.bytes counts the served payload"
      (Cache.stats alone).Cache.bytes s.Cache.bytes;
    want
  in
  with_mux ~config @@ fun mx ->
  Alcotest.(check string) "store hit bytes" want (raw_compile mx req);
  Alcotest.(check int) "one store hit" 1
    (Cache.stats (Mux.cache mx)).Cache.store_hits

let test_mux_shard_router () =
  with_tmp_dir @@ fun dir ->
  let w = Option.get (R.find "compr") in
  (* oracle before any daemon owns the obs state *)
  let _, direct =
    P.run_fresh_json ~label:w.R.name ~deterministic:true ~options w.R.source
  in
  let spath i = Filename.concat dir (Printf.sprintf "shard%d.sock" i) in
  let shard_muxes = Array.init 2 (fun _ -> Mux.create ()) in
  let shard_threads =
    Array.mapi
      (fun i mx ->
        Thread.create (fun () -> Mux.serve_unix mx ~path:(spath i)) ())
      shard_muxes
  in
  let router = Mux.create ~shards:(Array.init 2 spath) () in
  Mux.start router;
  Fun.protect
    ~finally:(fun () ->
      (* stopping the router relays Shutdown to the fleet, so the
         shard serve loops drain and their threads join *)
      Mux.stop router;
      Array.iter Thread.join shard_threads)
  @@ fun () ->
  with_client router @@ fun c ->
  let srcs =
    List.init 6 (fun i -> Printf.sprintf "int main() { return %d; }" i)
  in
  let fresh =
    List.map
      (fun s ->
        match Client.compile c (mk_compile (`Source s)) with
        | Proto.Report { cached = false; report } -> report
        | r -> Alcotest.failf "router fresh %s: %s" s (response_label r))
      srcs
  in
  (* replay: every request hits the cache of the shard that owns its
     key, with stable bytes relayed verbatim *)
  List.iter2
    (fun s want ->
      match Client.compile c (mk_compile (`Source s)) with
      | Proto.Report { cached = true; report } ->
          Alcotest.(check string) ("router warm " ^ s) want report
      | r -> Alcotest.failf "router warm %s: %s" s (response_label r))
    srcs fresh;
  (* byte identity holds through the relay *)
  (match Client.compile c { (request w) with Proto.deadline_s = None } with
  | Proto.Report { cached = false; report } ->
      Alcotest.(check string) "relayed report byte-identical" direct report
  | r -> Alcotest.failf "relayed workload: %s" (response_label r));
  (* the stats document names the fleet *)
  match J.member (Mux.stats_doc router) "serve" with
  | Some serve -> (
      match J.member serve "shards" with
      | Some (J.Int 2) -> ()
      | _ -> Alcotest.fail "router stats: no shards = 2")
  | None -> Alcotest.fail "router stats: no serve section"

let suite =
  [
    Alcotest.test_case "concurrent rounds, byte-identity, cache" `Slow
      test_rounds;
    Alcotest.test_case "regs splits the cache" `Quick test_regs_splits_cache;
    Alcotest.test_case "poisoned request" `Quick test_poisoned;
    Alcotest.test_case "fuel-exhausted structured error" `Quick
      test_fuel_exhausted;
    Alcotest.test_case "unknown workload" `Quick test_unknown_workload;
    Alcotest.test_case "oversized generated workload" `Quick
      test_oversized_generated_workload;
    Alcotest.test_case "malformed frame" `Quick test_malformed_frame;
    Alcotest.test_case "garbled json payload" `Quick test_garbled_json;
    Alcotest.test_case "busy shedding" `Quick test_busy_shedding;
    Alcotest.test_case "deadline timeout" `Slow test_deadline;
    Alcotest.test_case "non-deterministic bypasses cache" `Quick
      test_nondet_bypasses_cache;
    Alcotest.test_case "stats document" `Quick test_stats;
    Alcotest.test_case "shutdown drain" `Quick test_shutdown;
    Alcotest.test_case "stop idempotent" `Quick test_stop_idempotent;
    Alcotest.test_case "mux pipelined responses ordered" `Slow
      test_mux_pipelined_order;
    Alcotest.test_case "mux slow-loris partial frames" `Quick
      test_mux_slow_loris;
    Alcotest.test_case "mux hangup mid-response" `Quick
      test_mux_hangup_mid_response;
    Alcotest.test_case "mux per-request deadline" `Slow
      test_mux_per_request_deadline;
    Alcotest.test_case "mux deadline while queued" `Slow
      test_mux_deadline_while_queued;
    Alcotest.test_case "mux single-flight dedup" `Slow
      test_mux_dedup_single_flight;
    Alcotest.test_case "mux oversized frame poisons stream" `Quick
      test_mux_oversized_poisons;
    Alcotest.test_case "mux store survives restart" `Quick
      test_mux_store_restart;
    Alcotest.test_case "mux warm hits from one map" `Quick
      test_mux_warm_hits_one_map;
    Alcotest.test_case "mux shard router" `Slow test_mux_shard_router;
  ]
