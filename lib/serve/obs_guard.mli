(** Process-global lock around the [Rp_obs] trace/metrics registries.

    [Pipeline.run_fresh_json] resets the global registries; every
    compile or stats snapshot in the process must hold this lock for
    deterministic reports to stay byte-identical.  Process-global, not
    per {!Mux}, so multiple in-process instances (e.g. an in-process
    shard fleet under test) serialise correctly. *)

val lock : Mutex.t

(** Run [f] with {!lock} held (released on exceptions). *)
val locked : (unit -> 'a) -> 'a
