(** Int-valued tables keyed by ids ([iid]s, registers): an array over
    [0 .. n-1] — the ids a function's counters have handed out — and a
    hash table for any other key, so hand-built IR is handled too. *)

type t

(** [create n ~default]: every key reads [default] until set. *)
val create : int -> default:int -> t

val get : t -> int -> int

val set : t -> int -> int -> unit

(** Tables of any value keyed by ids: the array grows to cover every
    non-negative key set, a hash table holds the negative ones. *)
module Poly : sig
  type 'a t

  (** [create n ~default]: room for keys [0 .. n-1] to start with;
      every key reads [default] until set. *)
  val create : int -> default:'a -> 'a t

  val get : 'a t -> int -> 'a

  val set : 'a t -> int -> 'a -> unit
end
