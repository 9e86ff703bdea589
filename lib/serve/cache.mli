(** Content-addressed result cache for the compile service.

    Promotion is a pure function of (source, options, report schema):
    under [--deterministic] the pipeline's JSON report is byte-identical
    across runs and across [jobs] settings (the PR 2 contract), so a
    finished report can be stored under a digest of its inputs and
    replayed verbatim. Keys are built with {!key}; the values are
    opaque strings — the compile service stores the framed response
    it sends on a hit.

    The cache is a bounded LRU with byte-size accounting: each entry
    costs its key plus its value plus a fixed overhead estimate, and
    inserting beyond [max_bytes] (or [max_entries]) evicts
    least-recently-used entries until the bound holds again. An entry
    larger than the whole budget is not cached at all. Eviction is
    model-checked in the test suite against a naive assoc-list LRU.

    Every operation is thread-safe (one mutex). The cache keeps its
    own counters; {!publish_metrics} mirrors them into
    [Rp_obs.Metrics] as [cache.hits]/[cache.misses]/[cache.evictions]/
    [cache.bytes] gauges on demand — mirroring is explicit because the
    service resets the global registry around each compile to keep
    reports one-shot-identical, and an automatic mirror would race
    those resets. *)

type t

(** [create ~max_bytes ~max_entries ()] — defaults: 64 MiB, 4096
    entries. [max_bytes] is clamped to at least 0; a cache created
    with [max_bytes = 0] caches nothing.  An optional [store] layers a
    persistent tier underneath: memory misses fall through to it,
    store hits are promoted back into the memory LRU, and {!add}
    writes through, so warm entries survive a restart.  Without a
    store, behaviour is the historical pure in-memory cache. *)
val create : ?max_bytes:int -> ?max_entries:int -> ?store:Store.t -> unit -> t

val store : t -> Store.t option

(** Digest of (build salt, source, option fingerprint, report schema
    version, label, deterministic flag): the content address of one
    compile result. The salt changes whenever a change to the compiler
    moves the bytes of its reports, or a change to the service moves
    the format of the stored values, so entries an older build stored
    are misses. [options_fp] should come from
    [Protocol.options_fingerprint ~for_key:true]. *)
val key :
  source:string -> options_fp:string -> label:string -> deterministic:bool ->
  string

(** Lookup; a hit moves the entry to most-recently-used. *)
val find : t -> string -> string option

(** Insert or replace. Replacing re-accounts the bytes; inserting
    evicts LRU entries as needed. *)
val add : t -> key:string -> string -> unit

(** Remove every entry (counters are kept). *)
val clear : t -> unit

type stats = {
  hits : int;  (** memory-tier hits *)
  misses : int;  (** both tiers missed *)
  evictions : int;
  entries : int;
  bytes : int;  (** current accounted size *)
  max_bytes : int;
  max_entries : int;
  store_hits : int;  (** memory missed, persistent tier hit *)
}

val stats : t -> stats

(** Entries from most- to least-recently used — the eviction order
    reversed; for tests and debugging. *)
val keys_mru : t -> string list

(** Mirror {!stats} into [Rp_obs.Metrics] ([cache.*] gauges). *)
val publish_metrics : t -> unit

val stats_json : t -> Rp_obs.Json.t
