(** Order-maintained instruction sequences: intrusive doubly-linked
    nodes around a sentinel, with a shared per-function iid→node index.

    All positional edits ([push_front], [push_back], [insert_before],
    [insert_after], [remove]) are O(1); iteration allocates nothing.

    Invariants (see DESIGN.md):
    - an iid belongs to at most one sequence at a time;
    - an attached instruction's [Instr.at] is its sequence's tag, and
      a detached one's is [-1];
    - every insertion, removal and {!set_op} bumps {!edits};
    - iteration captures the successor before each callback, so the
      callback may remove any node (including the current one); nodes
      inserted during iteration are not guaranteed to be visited. *)

type t

(** The shared iid→node index; one per function, threaded through every
    sequence of that function's blocks. *)
type index

val create_index : unit -> index

(** [create ~tag ~index]: fresh empty sequence; [tag] is the owning
    block's id, recoverable from an index hit via {!index_lookup}. *)
val create : tag:int -> index:index -> t

val length : t -> int

val is_empty : t -> bool

(** How many insertions, removals and {!set_op} rewrites the sequence
    has had: a pass that read it at one count knows it unchanged while
    the count stays. *)
val edits : t -> int

(** [set_op t i op] replaces the opcode of [i], an instruction of [t],
    counting it as an edit of [t]. *)
val set_op : t -> Instr.t -> Instr.opcode -> unit

(** O(1): the owning sequence's tag and the instruction, when the iid
    is currently attached to any sequence on this index. *)
val index_lookup : index -> Ids.iid -> (int * Instr.t) option

val push_front : t -> Instr.t -> unit

val push_back : t -> Instr.t -> unit

(** Is this iid in *this* sequence? O(1). *)
val mem : t -> Ids.iid -> bool

(** @raise Not_found when [iid] is not in this sequence. *)
val insert_before : t -> iid:Ids.iid -> Instr.t -> unit

(** @raise Not_found when [iid] is not in this sequence. *)
val insert_after : t -> iid:Ids.iid -> Instr.t -> unit

(** No-op when [iid] is not in this sequence. *)
val remove : t -> iid:Ids.iid -> unit

val clear : t -> unit

val iter : (Instr.t -> unit) -> t -> unit

val iteri : (int -> Instr.t -> unit) -> t -> unit

val iter_rev : (Instr.t -> unit) -> t -> unit

val fold_left : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a

val fold_right : (Instr.t -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> Instr.t list

val exists : (Instr.t -> bool) -> t -> bool

val find_opt : (Instr.t -> bool) -> t -> Instr.t option

(** O(1) lookup by iid within this sequence. *)
val find : t -> iid:Ids.iid -> Instr.t option

val first : t -> Instr.t option

val last : t -> Instr.t option

(** Remove every instruction that fails the predicate, preserving
    order. *)
val filter_in_place : (Instr.t -> bool) -> t -> unit
