(* Event-driven daemon: one loop thread multiplexes every connection
   over [Unix.select] — non-blocking accept/read/write with
   per-connection frame-reassembly buffers, ordered response slots and
   write queues — while compiles run on [Rp_par.Pool] worker domains.
   No thread per connection: the loop answers warm cache hits inline
   and parks cold requests as futures, folding their deadlines into
   the select timeout.

   Per-connection state machine:

     readable --frames--> slot queue --futures done--> write queue

   - reads append to a growable input buffer; every complete frame is
     decoded immediately (pipelining: many requests may be in flight
     on one connection, responses are written strictly in request
     order);
   - each request occupies one slot, either [Ready payload] (answered
     inline: pings, cache hits, errors) or [Pending future];
   - the flusher pops Ready slots from the front only, so a slow
     compile never lets a later response overtake an earlier one;
   - backpressure: a connection with too many queued response bytes or
     too many outstanding slots is excluded from the read set until it
     drains — a slow reader throttles itself, not the daemon.

   Framing violations poison the stream (answered, then the connection
   closes once flushed); well-framed garbage is answered and the
   session continues.  Requests whose deadline expires while queued
   are answered [Timeout] and the abandoned future still populates the
   cache.

   Descriptor pressure never ends the loop: an accept error (EMFILE,
   ENFILE, ECONNABORTED, ...) parks the listener for a short back-off,
   and connections beyond [max_conns] are refused with [Busy] so no
   descriptor handed to [Unix.select] reaches FD_SETSIZE.

   In router mode ([~shards]) the mux owns no pipeline at all: compile
   requests are routed by the leading bits of their content digest to
   one of N shard daemons over persistent connections, and the shard's
   raw response bytes are relayed verbatim — byte transparency keeps
   the determinism contract end to end.  The routing invariant: the
   shard index is a pure function of the cache key, so a given compile
   always lands on the shard that owns its cache entry. *)

module J = Rp_obs.Json
module P = Rp_core.Pipeline
module Pool = Rp_par.Pool
module Registry = Rp_workloads.Registry

type config = {
  jobs : int;  (* pool size for compile futures, forced >= 2 *)
  max_inflight : int;
  deadline_s : float;
  cache_max_bytes : int;
  cache_max_entries : int;
  cache_dir : string option;  (* None = pure in-memory (PR 4 behaviour) *)
  store_max_bytes : int;
  wq_high_water : int;  (* pause reads above this many queued bytes *)
  max_pipeline : int;  (* pause reads above this many open slots *)
}

let default_config =
  {
    jobs = 2;
    max_inflight = 4;
    deadline_s = 120.0;
    cache_max_bytes = 64 * 1024 * 1024;
    cache_max_entries = 4096;
    cache_dir = None;
    store_max_bytes = 256 * 1024 * 1024;
    wq_high_water = 1 lsl 20;
    max_pipeline = 64;
  }

(* [Unix.select] works on fd_sets, which cannot hold a descriptor >=
   FD_SETSIZE (1024): one such fd in a set makes select fail with
   EINVAL.  The kernel hands out the lowest free numbers, so capping the
   connection count keeps every selected fd below the limit as long as
   the headroom covers the process's other descriptors: stdio, the wake
   pipe, the listener, one link per shard in router mode, files the
   persistent store opens on worker domains, and a refused connection
   between its accept and its close. *)
let max_conns = 960

(* how long the listener sits out of the read set after an accept
   error, unless a connection closes first: a listener with a pending
   connection stays readable, so retrying at once would spin the loop *)
let accept_backoff_s = 0.05

type counters = {
  mutable accepted : int;
  mutable closed : int;
  mutable accept_errors : int;
  mutable refused : int;  (* connections over [max_conns] *)
  mutable req_compile : int;
  mutable req_ping : int;
  mutable req_stats : int;
  mutable req_shutdown : int;
  mutable resp_report : int;
  mutable resp_cached : int;
  mutable resp_error : int;
  mutable shed : int;
  mutable timeouts : int;
  mutable protocol_errors : int;
  mutable dedup_joins : int;  (* requests attached to an in-flight twin *)
  mutable backpressure_pauses : int;
  mutable relayed : int;  (* router mode: compiles forwarded to shards *)
}

(* one persistent client link per shard, lazily (re)connected *)
type shard_link = {
  spath : string;
  sm : Mutex.t;
  mutable sconn : Protocol.conn option;
}

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Cache.t;
  shards : shard_link array;  (* [||] = normal daemon, else router *)
  m : Mutex.t;
  counters : counters;
  mutable inflight : int;
  (* deterministic compiles already running, for single-flight dedup:
     a second identical request attaches to the first one's future *)
  keyed : (string, string Pool.future) Hashtbl.t;
  stopping : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable pending_conns : Unix.file_descr list;  (* loopback handoff *)
  mutable loop_thread : Thread.t option;
  mutable stopped : bool;
  started_at : float;
}

let create ?(config = default_config) ?(shards = [||]) () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let store =
    Option.map
      (fun dir -> Store.open_dir ~max_bytes:config.store_max_bytes dir)
      config.cache_dir
  in
  {
    cfg = config;
    (* >= 2: with a 1-job pool [Pool.submit] runs the task inline, and
       a compile on the event-loop thread would stall every client *)
    pool = Pool.create ~jobs:(max 2 config.jobs);
    cache =
      Cache.create ~max_bytes:config.cache_max_bytes
        ~max_entries:config.cache_max_entries ?store ();
    shards =
      Array.map
        (fun spath -> { spath; sm = Mutex.create (); sconn = None })
        shards;
    m = Mutex.create ();
    counters =
      {
        accepted = 0;
        closed = 0;
        accept_errors = 0;
        refused = 0;
        req_compile = 0;
        req_ping = 0;
        req_stats = 0;
        req_shutdown = 0;
        resp_report = 0;
        resp_cached = 0;
        resp_error = 0;
        shed = 0;
        timeouts = 0;
        protocol_errors = 0;
        dedup_joins = 0;
        backpressure_pauses = 0;
        relayed = 0;
      };
    inflight = 0;
    keyed = Hashtbl.create 16;
    stopping = Atomic.make false;
    wake_r;
    wake_w;
    pending_conns = [];
    loop_thread = None;
    stopped = false;
    started_at = Unix.gettimeofday ();
  }

let config t = t.cfg
let cache t = t.cache

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let wake t =
  try ignore (Unix.write_substring t.wake_w "w" 0 1)
  with Unix.Unix_error _ -> ()

(* flag flip + pipe write: both safe from a signal handler *)
let request_shutdown t =
  Atomic.set t.stopping true;
  wake t

let shutting_down t = Atomic.get t.stopping

(* ------------------------------------------------------------------ *)
(* Responses *)

let serialize (r : Protocol.response) : Protocol.response * string =
  let payload = J.to_string ~minify:true (Protocol.response_to_json r) in
  if String.length payload <= Protocol.max_frame then (r, payload)
  else
    let r =
      Protocol.Error
        {
          kind = Protocol.Internal;
          message =
            Printf.sprintf "report of %d bytes exceeds the %d-byte frame limit"
              (String.length payload) Protocol.max_frame;
        }
    in
    (r, J.to_string ~minify:true (Protocol.response_to_json r))

(* count and serialise; every response leaves through here (or is a
   raw relayed payload, counted at relay time) *)
let payload_of_response t (r : Protocol.response) : string =
  let r, payload = serialize r in
  locked t (fun () ->
      let c = t.counters in
      match r with
      | Protocol.Error { kind = Protocol.Protocol_error; _ } ->
          c.resp_error <- c.resp_error + 1;
          c.protocol_errors <- c.protocol_errors + 1
      | Protocol.Error { kind = Protocol.Timeout; _ } ->
          c.resp_error <- c.resp_error + 1;
          c.timeouts <- c.timeouts + 1
      | Protocol.Error { kind = Protocol.Busy; _ } ->
          c.resp_error <- c.resp_error + 1;
          c.shed <- c.shed + 1
      | Protocol.Error _ -> c.resp_error <- c.resp_error + 1
      | Protocol.Report { cached = true; _ } ->
          c.resp_cached <- c.resp_cached + 1
      | Protocol.Report { cached = false; _ } ->
          c.resp_report <- c.resp_report + 1
      | _ -> ());
  payload

let error_of_exn (e : exn) : Protocol.response =
  match e with
  | Rp_minic.Lexer.Error m
  | Rp_minic.Parser.Error m
  | Rp_minic.Sema.Error m
  | Rp_minic.Lower.Error m ->
      Protocol.Error { kind = Protocol.Bad_input; message = m }
  | Rp_interp.Interp.Runtime_error m ->
      Protocol.Error
        { kind = Protocol.Bad_input; message = "runtime error: " ^ m }
  | Rp_interp.Interp.Out_of_fuel budget ->
      Protocol.Error
        {
          kind = Protocol.Fuel_exhausted;
          message =
            Printf.sprintf "interpreter fuel exhausted (budget %d)" budget;
        }
  | e ->
      Protocol.Error { kind = Protocol.Internal; message = Printexc.to_string e }

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats_doc t : J.t =
  Obs_guard.locked @@ fun () ->
  Cache.publish_metrics t.cache;
  let c = t.counters in
  let section =
    locked t @@ fun () ->
    J.Obj
      ([
         ("engine", J.Str "mux");
         ("uptime_s", J.Float (Unix.gettimeofday () -. t.started_at));
         ("shutting_down", J.Bool (Atomic.get t.stopping));
         ("inflight", J.Int t.inflight);
         ( "limits",
           J.Obj
             [
               ("jobs", J.Int t.cfg.jobs);
               ("max_inflight", J.Int t.cfg.max_inflight);
               ("deadline_s", J.Float t.cfg.deadline_s);
               ("wq_high_water", J.Int t.cfg.wq_high_water);
               ("max_pipeline", J.Int t.cfg.max_pipeline);
               ("max_conns", J.Int max_conns);
             ] );
         ( "connections",
           J.Obj
             [
               ("accepted", J.Int c.accepted);
               ("closed", J.Int c.closed);
               ("accept_errors", J.Int c.accept_errors);
               ("refused", J.Int c.refused);
             ] );
         ( "requests",
           J.Obj
             [
               ("compile", J.Int c.req_compile);
               ("ping", J.Int c.req_ping);
               ("stats", J.Int c.req_stats);
               ("shutdown", J.Int c.req_shutdown);
             ] );
         ( "responses",
           J.Obj
             [
               ("report", J.Int c.resp_report);
               ("cached", J.Int c.resp_cached);
               ("error", J.Int c.resp_error);
               ("shed", J.Int c.shed);
               ("timeout", J.Int c.timeouts);
               ("protocol_error", J.Int c.protocol_errors);
               ("dedup_joins", J.Int c.dedup_joins);
               ("relayed", J.Int c.relayed);
             ] );
         ("backpressure_pauses", J.Int c.backpressure_pauses);
         ("cache", Cache.stats_json t.cache);
       ]
      @
      if Array.length t.shards = 0 then []
      else [ ("shards", J.Int (Array.length t.shards)) ])
  in
  Rp_obs.Report.make ~tool:"rpromote-serve" [ ("serve", section) ]

(* ------------------------------------------------------------------ *)
(* Shard routing (router mode) *)

(* the shard index is a pure function of the cache key, so a compile
   always lands on the shard whose store owns its entry *)
let shard_of_key t key =
  let bits = int_of_string ("0x" ^ String.sub key 0 8) in
  bits mod Array.length t.shards

let connect_shard path : Protocol.conn option =
  let rec go tries =
    if tries = 0 then None
    else
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Some (Protocol.conn_of_fd fd)
      | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Thread.delay 0.1;
          go (tries - 1)
  in
  go 50 (* shards may still be binding their sockets: up to ~5 s *)

exception Relay_failed of string

(* forward the raw request payload, return the raw response payload;
   runs on a pool worker under the per-shard mutex (one outstanding
   relay per shard link at a time) *)
let relay t idx (payload : string) : string =
  let link = t.shards.(idx) in
  Mutex.lock link.sm;
  Fun.protect ~finally:(fun () -> Mutex.unlock link.sm) @@ fun () ->
  let attempt () =
    let conn =
      match link.sconn with
      | Some c -> c
      | None -> (
          match connect_shard link.spath with
          | Some c ->
              link.sconn <- Some c;
              c
          | None -> raise (Relay_failed ("cannot reach shard " ^ link.spath)))
    in
    match
      Protocol.write_frame conn payload;
      Protocol.read_frame conn
    with
    | Protocol.Frame resp -> resp
    | Protocol.Eof | Protocol.Bad _ | (exception Unix.Unix_error _) ->
        (try conn.Protocol.close () with _ -> ());
        link.sconn <- None;
        raise (Relay_failed ("shard link lost: " ^ link.spath))
  in
  try attempt () with Relay_failed _ -> attempt ()

let relay_response t idx payload =
  locked t (fun () -> t.counters.relayed <- t.counters.relayed + 1);
  try relay t idx payload
  with Relay_failed m | Failure m ->
    payload_of_response t (Protocol.Error { kind = Protocol.Internal; message = m })

(* a stats request in router mode folds every shard's stats into the
   router's own document *)
let router_stats t : string =
  let doc = stats_doc t in
  let shard_docs =
    Array.to_list
      (Array.mapi
         (fun i _ ->
           let req =
             J.to_string ~minify:true (Protocol.request_to_json Protocol.Stats)
           in
           match
             let resp = relay t i req in
             let open Protocol in
             match Result.bind (J.parse resp) response_of_json with
             | Ok (Stats_reply d) -> Some d
             | _ -> None
           with
           | Some d -> d
           | None | (exception Relay_failed _) -> J.Null)
         t.shards)
  in
  let doc =
    match doc with
    | J.Obj fields ->
        J.Obj (fields @ [ ("shard_stats", J.Arr shard_docs) ])
    | d -> d
  in
  payload_of_response t (Protocol.Stats_reply doc)

(* ------------------------------------------------------------------ *)
(* Compile dispatch *)

let compile_task t ~label ~source ~deterministic ~key (options : P.options) () =
  let response =
    try
      let s =
        Obs_guard.locked @@ fun () ->
        (* jobs forced to 1: identical result for every jobs value (the
           determinism contract), and the cache key ignores jobs *)
        let _, s =
          P.run_fresh_json ~label ~deterministic
            ~options:{ options with P.jobs = 1 }
            source
        in
        s
      in
      (* the cache holds the payload a hit sends, serialised once here;
         a report too large to frame is never cached *)
      (if deterministic then
         match serialize (Protocol.Report { cached = true; report = s }) with
         | Protocol.Report _, p -> Cache.add t.cache ~key p
         | _ -> ());
      Protocol.Report { cached = false; report = s }
    with e -> error_of_exn e
  in
  payload_of_response t response

(* what the loop does with one decoded compile request: either an
   immediate payload or a parked future with its absolute deadline *)
type dispatch = Now of string | Later of string Pool.future * float

let abs_deadline t ?override () =
  let d =
    match override with Some d -> d | None -> t.cfg.deadline_s
  in
  if d > 0.0 then Unix.gettimeofday () +. d else infinity

let deadline_of t (c : Protocol.compile) =
  abs_deadline t ?override:c.Protocol.deadline_s ()

let dispatch_compile t (c : Protocol.compile) (raw : string) : dispatch =
  match
    match c.Protocol.target with
    | `Workload name -> (
        match Registry.find name with
        | Some w -> Ok (name, w.Registry.source)
        | None -> Error ("unknown workload: " ^ name))
    | `Source s -> Ok ("request", s)
  with
  | Error m ->
      Now
        (payload_of_response t
           (Protocol.Error { kind = Protocol.Bad_input; message = m }))
  | Ok (label, source) -> (
      let options = c.Protocol.options in
      let deterministic = c.Protocol.deterministic in
      let key =
        Cache.key ~source
          ~options_fp:(Protocol.options_fingerprint ~for_key:true options)
          ~label ~deterministic
      in
      if Array.length t.shards > 0 then
        (* router: no local pipeline, forward raw bytes to the owner *)
        let idx = shard_of_key t key in
        Later
          ( Pool.submit t.pool (fun () -> relay_response t idx raw),
            deadline_of t c )
      else
        let cached =
          if not deterministic then None else Cache.find t.cache key
        in
        match cached with
        | Some p ->
            locked t (fun () ->
                t.counters.resp_cached <- t.counters.resp_cached + 1);
            Now p
        | None -> (
            let admitted =
              locked t @@ fun () ->
              if Atomic.get t.stopping then `Stopping
              else
                match
                  if deterministic then Hashtbl.find_opt t.keyed key else None
                with
                | Some fut ->
                    (* single flight: join the identical in-flight
                       compile instead of burning a second worker *)
                    t.counters.dedup_joins <- t.counters.dedup_joins + 1;
                    `Join fut
                | None ->
                    if t.inflight >= t.cfg.max_inflight then `Busy
                    else begin
                      t.inflight <- t.inflight + 1;
                      `Go
                    end
            in
            match admitted with
            | `Stopping ->
                Now
                  (payload_of_response t
                     (Protocol.Error
                        {
                          kind = Protocol.Shutting_down;
                          message = "daemon is shutting down";
                        }))
            | `Busy ->
                Now
                  (payload_of_response t
                     (Protocol.Error
                        {
                          kind = Protocol.Busy;
                          message =
                            Printf.sprintf
                              "max inflight (%d) reached, request shed"
                              t.cfg.max_inflight;
                        }))
            | `Join fut -> Later (fut, deadline_of t c)
            | `Go ->
                let fut =
                  Pool.submit t.pool (fun () ->
                      Fun.protect
                        ~finally:(fun () ->
                          locked t (fun () ->
                              t.inflight <- t.inflight - 1;
                              Hashtbl.remove t.keyed key))
                        (compile_task t ~label ~source ~deterministic ~key
                           options))
                in
                if deterministic then
                  locked t (fun () -> Hashtbl.replace t.keyed key fut);
                Later (fut, deadline_of t c)))

(* ------------------------------------------------------------------ *)
(* The event loop *)

(* growable input buffer with a consumed prefix *)
type ibuf = { mutable data : Bytes.t; mutable ilen : int; mutable ipos : int }

let ibuf_append b src n =
  let need = b.ilen + n in
  if need > Bytes.length b.data then begin
    let cap = max need (2 * Bytes.length b.data) in
    let data = Bytes.create cap in
    Bytes.blit b.data 0 data 0 b.ilen;
    b.data <- data
  end;
  Bytes.blit src 0 b.data b.ilen n;
  b.ilen <- b.ilen + n

let ibuf_compact b =
  if b.ipos > 0 then begin
    Bytes.blit b.data b.ipos b.data 0 (b.ilen - b.ipos);
    b.ilen <- b.ilen - b.ipos;
    b.ipos <- 0
  end

type slot = Ready of string | Pending of string Pool.future * float

type cstate = {
  fd : Unix.file_descr;
  inb : ibuf;
  slots : slot ref Queue.t;
  outq : string Queue.t;  (* framed chunks *)
  mutable out_off : int;  (* consumed prefix of the front chunk *)
  mutable out_bytes : int;
  mutable closing : bool;  (* no more reads; close once drained *)
  mutable blocked_w : bool;  (* last write hit EAGAIN *)
  mutable wr_ready : bool;  (* select reported it writable this tick *)
  mutable paused : bool;  (* excluded from the read set (stat only) *)
}

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let enqueue_payload c payload =
  let f = frame payload in
  Queue.push f c.outq;
  c.out_bytes <- c.out_bytes + String.length f

(* decode and dispatch one request payload into a fresh slot *)
let handle_payload t c (payload : string) : unit =
  let slot r = Queue.push (ref r) c.slots in
  let proto_error m =
    slot
      (Ready
         (payload_of_response t
            (Protocol.Error { kind = Protocol.Protocol_error; message = m })))
  in
  match Result.bind (J.parse payload) Protocol.request_of_json with
  | Error m -> proto_error m
  | Ok req -> (
      locked t (fun () ->
          let k = t.counters in
          match req with
          | Protocol.Compile _ -> k.req_compile <- k.req_compile + 1
          | Protocol.Ping -> k.req_ping <- k.req_ping + 1
          | Protocol.Stats -> k.req_stats <- k.req_stats + 1
          | Protocol.Shutdown -> k.req_shutdown <- k.req_shutdown + 1);
      match req with
      | Protocol.Ping ->
          slot (Ready (payload_of_response t Protocol.Pong))
      | Protocol.Shutdown ->
          slot (Ready (payload_of_response t Protocol.Shutdown_ack));
          request_shutdown t
      | Protocol.Stats ->
          (* stats take the obs lock, which a long compile may hold:
             never on the loop thread *)
          let task () =
            if Array.length t.shards > 0 then router_stats t
            else payload_of_response t (Protocol.Stats_reply (stats_doc t))
          in
          slot (Pending (Pool.submit t.pool task, abs_deadline t ()))
      | Protocol.Compile comp -> (
          match dispatch_compile t comp payload with
          | Now p -> slot (Ready p)
          | Later (fut, deadline) -> slot (Pending (fut, deadline))))

(* extract every complete frame currently in the buffer *)
let scan_frames t c =
  let continue = ref true in
  while !continue && not c.closing do
    let avail = c.inb.ilen - c.inb.ipos in
    if avail < 4 then continue := false
    else
      let len = Int32.to_int (Bytes.get_int32_be c.inb.data c.inb.ipos) in
      if len < 0 || len > Protocol.max_frame then begin
        (* stream is desynchronised: answer, then poison *)
        Queue.push
          (ref
             (Ready
                (payload_of_response t
                   (Protocol.Error
                      {
                        kind = Protocol.Protocol_error;
                        message =
                          Printf.sprintf
                            "closing connection: frame length %d out of range"
                            len;
                      }))))
          c.slots;
        c.closing <- true
      end
      else if avail >= 4 + len then begin
        let payload = Bytes.sub_string c.inb.data (c.inb.ipos + 4) len in
        c.inb.ipos <- c.inb.ipos + 4 + len;
        handle_payload t c payload
      end
      else continue := false
  done;
  ibuf_compact c.inb

(* move completed/expired futures to Ready, then flush in-order Ready
   heads into the write queue *)
let advance_slots t c ~now =
  Queue.iter
    (fun r ->
      match !r with
      | Ready _ -> ()
      | Pending (fut, deadline) -> (
          match Pool.poll fut with
          | Some (Ok payload) -> r := Ready payload
          | Some (Error (e, _)) -> r := Ready (payload_of_response t (error_of_exn e))
          | None ->
              if now > deadline then
                r :=
                  Ready
                    (payload_of_response t
                       (Protocol.Error
                          {
                            kind = Protocol.Timeout;
                            message =
                              "deadline expired; the compile continues in \
                               the background and will populate the cache";
                          }))))
    c.slots;
  let flushing = ref true in
  while !flushing do
    match Queue.peek_opt c.slots with
    | Some { contents = Ready payload } ->
        ignore (Queue.pop c.slots);
        enqueue_payload c payload
    | _ -> flushing := false
  done

exception Conn_dead

(* Consecutive small responses are coalesced into one [write]: under
   deep pipelining this collapses dozens of frame-sized syscalls per
   connection per tick into one. *)
let coalesce_limit = 65536

let try_write c =
  (try
     while not (Queue.is_empty c.outq) do
       let chunk, off =
         let head = Queue.peek c.outq in
         if
           c.out_off > 0
           || String.length head >= coalesce_limit
           || Queue.length c.outq = 1
         then (head, c.out_off)
         else begin
           let buf = Buffer.create coalesce_limit in
           while
             (not (Queue.is_empty c.outq))
             && Buffer.length buf + String.length (Queue.peek c.outq)
                <= coalesce_limit
           do
             Buffer.add_string buf (Queue.pop c.outq)
           done;
           let merged = Buffer.contents buf in
           (* reinstall the merged run as the queue head *)
           let q = Queue.create () in
           Queue.push merged q;
           Queue.transfer c.outq q;
           Queue.transfer q c.outq;
           (merged, 0)
         end
       in
       let len = String.length chunk - off in
       match Unix.write_substring c.fd chunk off len with
       | n ->
           c.out_bytes <- c.out_bytes - n;
           c.blocked_w <- false;
           if n = len then begin
             ignore (Queue.pop c.outq);
             c.out_off <- 0
           end
           else begin
             c.out_off <- off + n;
             raise Exit (* partial write: kernel buffer is full *)
           end
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
           raise Exit
     done
   with Exit -> c.blocked_w <- true);
  ()

let run t ?(listen : Unix.file_descr option) () =
  (* ignore SIGPIPE for the whole loop lifetime: a peer hanging up
     mid-response must surface as EPIPE on the write, and loopback
     callers never go through [serve_unix]'s handler install *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let conns : (Unix.file_descr, cstate) Hashtbl.t = Hashtbl.create 64 in
  let scratch = Bytes.create 65536 in
  (* after an accept error the listener is left out of the read set
     until this time; a closing connection frees a descriptor and ends
     the back-off early *)
  let listen_paused_until = ref 0.0 in
  let adopt fd =
    (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
    Hashtbl.replace conns fd
      {
        fd;
        inb = { data = Bytes.create 4096; ilen = 0; ipos = 0 };
        slots = Queue.create ();
        outq = Queue.create ();
        out_off = 0;
        out_bytes = 0;
        closing = false;
        blocked_w = false;
        wr_ready = false;
        paused = false;
      };
    locked t (fun () -> t.counters.accepted <- t.counters.accepted + 1)
  in
  (* over the cap: one structured [Busy] frame, written without
     blocking (a fresh socket's buffer takes it whole), then close *)
  let refuse fd =
    let f =
      frame
        (payload_of_response t
           (Protocol.Error
              {
                kind = Protocol.Busy;
                message =
                  Printf.sprintf "connection limit (%d) reached, connection refused"
                    max_conns;
              }))
    in
    locked t (fun () -> t.counters.refused <- t.counters.refused + 1);
    (try
       Unix.set_nonblock fd;
       ignore (Unix.write_substring fd f 0 (String.length f))
     with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let admit fd =
    if Hashtbl.length conns >= max_conns then refuse fd else adopt fd
  in
  let destroy c =
    Hashtbl.remove conns c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    listen_paused_until := 0.0;
    locked t (fun () -> t.counters.closed <- t.counters.closed + 1)
  in
  let accept_pending lfd =
    let accepting = ref true in
    while !accepting do
      match Unix.accept lfd with
      | cfd, _ ->
          if Atomic.get t.stopping then (
            try Unix.close cfd with Unix.Unix_error _ -> ())
          else admit cfd
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          accepting := false
      | exception Unix.Unix_error _ ->
          (* EMFILE, ENFILE, ECONNABORTED, ...: keep serving the
             connections we have and retry after the back-off *)
          locked t (fun () ->
              t.counters.accept_errors <- t.counters.accept_errors + 1);
          listen_paused_until := Unix.gettimeofday () +. accept_backoff_s;
          accepting := false
    done
  in
  let read_conn c =
    match
      let rec go n =
        (* bounded per tick so one firehose client cannot starve the rest *)
        if n = 0 then ()
        else
          match Unix.read c.fd scratch 0 (Bytes.length scratch) with
          | 0 -> c.closing <- true
          | got ->
              ibuf_append c.inb scratch got;
              if got = Bytes.length scratch then go (n - 1)
      in
      go 4
    with
    | () -> scan_frames t c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        scan_frames t c
    | exception Unix.Unix_error _ -> raise Conn_dead
  in
  let drain_deadline = ref infinity in
  let finished = ref false in
  while not !finished do
    (* adopt loopback registrations *)
    List.iter admit
      (locked t (fun () ->
           let l = t.pending_conns in
           t.pending_conns <- [];
           List.rev l));
    let stopping = Atomic.get t.stopping in
    let tick_start = Unix.gettimeofday () in
    if stopping && !drain_deadline = infinity then
      drain_deadline := tick_start +. 30.0;
    (* read set: listener + wake pipe + unpaused open connections *)
    let rds = ref [ t.wake_r ] in
    (match listen with
    | Some fd when (not stopping) && tick_start >= !listen_paused_until ->
        rds := fd :: !rds
    | _ -> ());
    let have_pending = ref false in
    Hashtbl.iter
      (fun fd c ->
        Queue.iter
          (fun r -> match !r with Pending _ -> have_pending := true | _ -> ())
          c.slots;
        if not c.closing then begin
          let pause =
            c.out_bytes > t.cfg.wq_high_water
            || Queue.length c.slots >= t.cfg.max_pipeline
          in
          if pause && not c.paused then
            locked t (fun () ->
                t.counters.backpressure_pauses <-
                  t.counters.backpressure_pauses + 1);
          c.paused <- pause;
          if not pause then rds := fd :: !rds
        end)
      conns;
    let wrs =
      Hashtbl.fold
        (fun fd c acc ->
          if c.blocked_w && not (Queue.is_empty c.outq) then fd :: acc else acc)
        conns []
    in
    let timeout = if !have_pending then 0.002 else 0.2 in
    (* a parked listener must be retried when its back-off ends *)
    let timeout =
      if !listen_paused_until > tick_start then
        Float.min timeout (!listen_paused_until -. tick_start)
      else timeout
    in
    let readable, writable, _ =
      try Unix.select !rds wrs [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* mark readiness in one pass over each list, so the per-connection
       work below never searches them: O(connections) per tick *)
    let wake_ready = ref false and listen_ready = ref false in
    let to_read = ref [] in
    List.iter
      (fun fd ->
        if fd = t.wake_r then wake_ready := true
        else if Some fd = listen then listen_ready := true
        else
          match Hashtbl.find_opt conns fd with
          | Some c -> to_read := c :: !to_read
          | None -> ())
      readable;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt conns fd with
        | Some c -> c.wr_ready <- true
        | None -> ())
      writable;
    (* wake pipe: drain and discard *)
    if !wake_ready then begin
      try
        while Unix.read t.wake_r scratch 0 64 > 0 do
          ()
        done
      with Unix.Unix_error _ -> ()
    end;
    if !listen_ready then Option.iter accept_pending listen;
    List.iter (fun c -> try read_conn c with Conn_dead -> destroy c) !to_read;
    (* futures, deadlines, ordered flush, then writes *)
    let now = Unix.gettimeofday () in
    let dead = ref [] in
    Hashtbl.iter
      (fun _ c ->
        advance_slots t c ~now;
        let write_failed =
          (not (Queue.is_empty c.outq))
          && (not c.blocked_w || c.wr_ready)
          && match try_write c with
             | () -> false
             | exception Unix.Unix_error _ -> true
        in
        c.wr_ready <- false;
        (* a draining daemon retires idle connections *)
        if stopping && Queue.is_empty c.slots && Queue.is_empty c.outq then
          c.closing <- true;
        if
          write_failed
          || (c.closing && Queue.is_empty c.slots && Queue.is_empty c.outq)
        then dead := c :: !dead)
      conns;
    List.iter destroy !dead;
    if stopping then begin
      if Hashtbl.length conns = 0 then finished := true
      else if Unix.gettimeofday () > !drain_deadline then begin
        Hashtbl.iter (fun _ c -> destroy c) (Hashtbl.copy conns);
        finished := true
      end
    end
  done;
  (match prev_sigpipe with
  | Some prev -> ( try Sys.set_signal Sys.sigpipe prev with _ -> ())
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Loopback, lifecycle *)

(* hand the server end of a socketpair to the loop; the caller gets a
   plain blocking conn.  Requires the loop to be running ([start] or
   [serve_unix]). *)
let loopback t : Protocol.conn =
  let server_fd, client_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  locked t (fun () -> t.pending_conns <- server_fd :: t.pending_conns);
  wake t;
  Protocol.conn_of_fd client_fd

let start t =
  locked t (fun () ->
      match t.loop_thread with
      | Some _ -> ()
      | None -> t.loop_thread <- Some (Thread.create (fun () -> run t ()) ()))

(* relay a shutdown to every shard daemon; the parent CLI reaps the
   children it forked *)
let stop_shards t =
  let req =
    J.to_string ~minify:true (Protocol.request_to_json Protocol.Shutdown)
  in
  Array.iteri
    (fun i _ -> match relay t i req with _ -> () | exception _ -> ())
    t.shards

let stop t =
  request_shutdown t;
  let claimed =
    locked t (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if claimed then begin
    (match locked t (fun () -> t.loop_thread) with
    | Some th -> Thread.join th
    | None -> ());
    if Array.length t.shards > 0 then stop_shards t;
    Array.iter
      (fun link ->
        match link.sconn with
        | Some c ->
            (try c.Protocol.close () with _ -> ());
            link.sconn <- None
        | None -> ())
      t.shards;
    Pool.shutdown t.pool;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end

let serve_unix t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let installed =
    let drain = Sys.Signal_handle (fun _ -> request_shutdown t) in
    List.filter_map
      (fun (s, behaviour) ->
        try Some (s, Sys.signal s behaviour)
        with Invalid_argument _ | Sys_error _ -> None)
      [
        (Sys.sigint, drain);
        (Sys.sigterm, drain);
        (Sys.sigpipe, Sys.Signal_ignore);
      ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (s, prev) -> try Sys.set_signal s prev with _ -> ())
        installed;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      stop t;
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 256;
  Unix.set_nonblock fd;
  run t ~listen:fd ()
