(** Union-find with path compression and union by rank — the paper's
    SSA-web construction (Figure 3) is a direct UNION/FIND computation
    over memory resource names.  The reference [Webs]' int-array
    union-find is checked against. *)

type 'a t

val create : unit -> 'a t

(** Register an element (idempotent). *)
val add : 'a t -> 'a -> unit

val find : 'a t -> 'a -> 'a

val union : 'a t -> 'a -> 'a -> unit

val same : 'a t -> 'a -> 'a -> bool

(** All equivalence classes as member lists. *)
val classes : 'a t -> 'a list list
