(** The committed benchmark artifact, [BENCH_promotion.json]: reading
    it back, and comparing its deterministic counts with a fresh run. *)

module J = Rp_obs.Json

(** ["BENCH_promotion.json"], relative to the working directory. *)
val file : string

(** The artifact's own schema version (not the pipeline report's). *)
val schema_version : int

(** Parse a file and check its {!schema_version}; [Error] names the
    file and the failure. *)
val read : string -> (J.t, string) result

(** A number, [Int] or [Float]. *)
val num : J.t option -> float option

(** The element of an array whose ["name"] is the given string. *)
val named : string -> J.t -> J.t option

(** Follow object keys from the root. *)
val find : J.t -> string list -> J.t option

(** The ["median"] of the spread found at the path. *)
val median : J.t -> string list -> float option

(** [{"median": .., "iqr": ..}] *)
val spread_json : Rounds.spread -> J.t

(** The per-workload sections compared by {!drift}: the static and
    dynamic counts, the promotion counters and the pressure counts. *)
val drift_keys : string list

(** [drift ~committed ~fresh] compares every {!drift_keys} section of
    each workload in the artifact [committed] with the same workload's
    section in [fresh] (workload objects as the artifact holds them,
    matched by ["name"]). Returns one line per difference, naming the
    workload and the path of the count; [[]] when nothing drifted. *)
val drift : committed:J.t -> fresh:J.t list -> string list
