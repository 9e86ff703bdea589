(** Int-valued tables keyed by ids ([iid]s, registers): an array over
    [0 .. n-1] — the ids a function's counters have handed out — and a
    hash table for any other key, so hand-built IR is handled too. *)

type t

(** [create n ~default]: every key reads [default] until set. *)
val create : int -> default:int -> t

val get : t -> int -> int

val set : t -> int -> int -> unit
