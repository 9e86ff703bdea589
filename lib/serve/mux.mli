(** Event-driven compile daemon: one loop thread multiplexes every
    connection over [Unix.select] while compiles run on [Rp_par.Pool]
    worker domains — no thread per connection.

    The per-connection state machine: reads append to a
    frame-reassembly buffer; every complete frame becomes one response
    slot, either answered inline (pings, warm cache hits, errors) or
    parked as a pool future with an absolute deadline folded into the
    select timeout.  Responses are written strictly in request order
    per connection (pipelining-safe), through a write queue whose byte
    count feeds backpressure: connections over the high-water mark or
    the pipeline cap are excluded from the read set until they drain.

    Deterministic compiles are deduplicated in flight (single flight):
    a request identical to one already running attaches to the same
    future instead of burning a second worker.

    With [config.cache_dir] set, a persistent {!Store} tier sits under
    the in-memory LRU so warm hits survive restarts.

    With [~shards] the mux is a router: it owns no pipeline, routes
    every compile by the leading bits of its cache key to one of N
    shard daemons over persistent links, and relays the shard's raw
    response bytes verbatim.  The invariant: the shard index is a pure
    function of the cache key, so cache residency partitions cleanly.

    Reports served deterministically are byte-identical to one-shot
    [Pipeline.run_fresh_json] output: compile execution is serialised
    by {!Obs_guard} around the process-global observability registries,
    so cross-request throughput comes from the cache and the loop, not
    from overlapping compiles.  Only deterministic reports are cached,
    each as the framed [Report {cached = true}] payload a hit sends,
    serialised once when its compile finishes;
    a non-deterministic request asks for fresh wall-clock measurements
    and bypasses the cache on both lookup and fill.  A pipeline
    exception is captured in its future and answered as a structured
    error: no client input can kill the daemon.

    {2 Degradation under load}

    - [max_inflight]: compiles beyond this many running futures are
      shed at once with a [Busy] error; the daemon never queues
      unboundedly.
    - Deadlines: a request whose deadline passes is answered
      [Timeout]; the compile finishes in the background and still
      fills the cache.
    - Descriptors: connections beyond a fixed cap below FD_SETSIZE are
      refused with a [Busy] error and closed; an accept error such as
      EMFILE leaves the listener out of the read set until a
      connection closes or a short back-off passes.  Both are counted
      in the stats document's [connections] section.
    - Shutdown (SIGINT/SIGTERM on {!serve_unix}, a [Shutdown] request,
      or {!request_shutdown}): the listener closes, in-flight work is
      drained and answered, further compile requests get a
      [Shutting_down] error, and idle connections are closed. *)

type config = {
  jobs : int;
      (** the compile pool gets [max 2 jobs - 1] worker domains, so the
          event loop never runs a compile inline.  Compiles still run
          one at a time whatever [jobs] is: each holds {!Obs_guard}'s
          process-wide lock around the trace and metrics registries. *)
  max_inflight : int;  (** admission bound; beyond it requests shed [Busy] *)
  deadline_s : float;  (** default per-request deadline; [0.] = none *)
  cache_max_bytes : int;
  cache_max_entries : int;
  cache_dir : string option;
      (** persistent store directory; [None] = pure in-memory *)
  store_max_bytes : int;
  wq_high_water : int;
      (** stop reading a connection whose queued response bytes exceed this *)
  max_pipeline : int;
      (** stop reading a connection with this many outstanding requests *)
}

val default_config : config

type t

(** [create ?config ?shards ()] — a daemon, or with [shards] (an array
    of shard socket paths) a router.  Creates the pool, cache and
    (when configured) the persistent store; the loop itself starts
    with {!serve_unix}, {!run} or {!start}. *)
val create : ?config:config -> ?shards:string array -> unit -> t

val config : t -> config
val cache : t -> Cache.t

(** Flip the drain flag and wake the loop; safe from signal handlers. *)
val request_shutdown : t -> unit

val shutting_down : t -> bool

(** The stats document ([Rp_obs.Report] with a ["serve"] section).
    Takes the process-global obs lock. *)
val stats_doc : t -> Rp_obs.Json.t

(** The event loop, in the calling thread, until drained.  [listen] is
    an already-bound, non-blocking listening socket. *)
val run : t -> ?listen:Unix.file_descr -> unit -> unit

(** Run the loop in a background thread (tests, benches). *)
val start : t -> unit

(** Drain and tear down: joins the loop thread started by {!start},
    shuts shard links and the pool down.  Idempotent. *)
val stop : t -> unit

(** Connect to a running loop in-process: the server end of a
    socketpair is handed to the multiplexer, the returned (blocking)
    conn is the client end.  The loop must be running. *)
val loopback : t -> Protocol.conn

(** Bind a Unix-domain socket at [path] and run the loop in the
    calling thread until a shutdown request or SIGINT/SIGTERM; then
    drain, tear down and unlink. *)
val serve_unix : t -> path:string -> unit
