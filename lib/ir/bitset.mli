(** Packed int-array bitsets over small dense ids (block ids, SSA
    location ids) — the set representation of the dataflow kernels.

    Sets are mutable and grow automatically, so the universe size never
    has to be known up front; trailing zero words are insignificant
    ([equal]/[is_empty] ignore them).  The in-place [union_into]/
    [diff_into] report whether the destination changed, which is
    exactly the fixpoint loops' convergence test. *)

type t

(** Fresh empty set with room for elements [0 .. n-1] before the first
    grow. *)
val create : int -> t

val empty : unit -> t

val copy : t -> t

(** Remove every element (capacity is kept). *)
val clear : t -> unit

(** @raise Invalid_argument on a negative element. *)
val add : t -> int -> unit

val remove : t -> int -> unit

val mem : t -> int -> bool

(** [union_into ~into src] is into := into ∪ src; true when [into]
    changed. *)
val union_into : into:t -> t -> bool

(** [diff_into ~into src] is into := into \ src; true when [into]
    changed. *)
val diff_into : into:t -> t -> bool

val is_empty : t -> bool

(** No common element. *)
val disjoint : t -> t -> bool

val equal : t -> t -> bool

val cardinal : t -> int

(** Fold over members in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (int -> unit) -> t -> unit

(** Members in increasing order. *)
val elements : t -> int list

val of_list : int list -> t

val to_intset : t -> Ids.IntSet.t

val of_intset : Ids.IntSet.t -> t
