(** The benchmark suite: eight MiniC programs named after the
    SPECInt95 benchmarks of the paper's evaluation, each engineered to
    echo the published opportunity profile (see the per-module headers
    and DESIGN.md). *)

type workload = { name : string; description : string; source : string }

val all : workload list

(** The name of a named workload, or "gen<n>" with
    [1 <= n <= max_generated]; [None] for anything else. *)
val find : string -> workload option

(** The largest size a "gen<n>" name resolves to (10000). *)
val max_generated : int

(** Synthetic scaling workload "gen<n>": deterministic deep loop nests
    with many address-taken scalars (see [Gen]).  [find "gen<n>"]
    resolves to the same workload up to {!max_generated}; this
    function takes any size. *)
val generated : int -> workload

(** The same program with its main loop bound divided by [factor] — a
    smaller "training input" with an identical CFG, for the classic
    profile-on-train / measure-on-ref methodology. *)
val train_source : workload -> factor:int -> string
