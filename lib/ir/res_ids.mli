(** Dense ids for one function's memory resources:
    [(base, ver) -> off.(base) + ver], built from [Func.mver].

    Ids run over [0 .. size - 1], so per-resource facts fit in arrays.
    A numbering is a snapshot of the function's versions: a resource
    created after it was built (or of a variable the function never
    versioned) gets {!miss}, never another resource's id. *)

type t

(** Number every version [0 .. mver.(base)] of every variable the
    function has versioned. O(variables). *)
val of_func : Func.t -> t

(** One past the largest id. *)
val size : t -> int

(** The id returned for a resource outside the numbering: [-1]. *)
val miss : int

(** The resource's id, or {!miss}. *)
val id : t -> Resource.t -> int

(** The resource of an id: the inverse of {!id}.
    @raise Invalid_argument outside [0 .. size - 1]. *)
val resource : t -> int -> Resource.t
