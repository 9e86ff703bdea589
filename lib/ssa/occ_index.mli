(** Memory-occurrence index of one function, keyed by variable: for
    each variable the function renamed into memory SSA, the
    instructions that mention one of its versions (as a definition, a
    use or a memory-phi source), in scan order — blocks by increasing
    id, phis before the body, instruction order. Version-0 resources,
    those of the variables {!Construct} leaves unversioned, are not
    indexed.

    Built by one walk of the function and kept current by its user.
    Entries are instructions, not resources: a query re-reads each
    instruction's opcode and skips an instruction that has been removed
    from its block (or whose block is dead) and one that no longer
    mentions the variable, such as a load rewritten to a copy. So
    removals and in-place rewrites need no bookkeeping. An inserted
    instruction that mentions a variable must be registered with
    {!note}: the index then re-derives the order of that block's
    entries when it next answers a query for the variable. *)

open Rp_ir

type t

(** Index every renamed variable of the function, in one walk of its
    live blocks by increasing id; [on_instr bid i] is called on every
    instruction of the walk, in order, so another pass can read the
    function in the same walk. *)
val build : ?on_instr:(Ids.bid -> Instr.t -> unit) -> Func.t -> t

(** [note t bid i]: [i] was inserted in block [bid]. Every variable [i]
    mentions re-reads that block on its next query. *)
val note : t -> Ids.bid -> Instr.t -> unit

(** [iter t v fn] calls [fn bid i ~defs ~uses] for each live
    instruction [i] mentioning [v], in scan order. [defs] and [uses] are
    the versions of [v] among {!Instr.mem_defs} and {!Instr.mem_uses} of
    [i], in their order; memory-phi sources are read from the opcode.
    [fn] may remove instructions, rewrite opcodes and call {!note}
    (entries it registers are not visited by this call), but must not
    query [v] again. *)
val iter :
  t ->
  Ids.vid ->
  (Ids.bid -> Instr.t -> defs:Resource.t list -> uses:Resource.t list -> unit) ->
  unit

(** {!iter} restricted to the blocks [lo .. hi]. *)
val iter_range :
  t ->
  Ids.vid ->
  lo:Ids.bid ->
  hi:Ids.bid ->
  (Ids.bid -> Instr.t -> defs:Resource.t list -> uses:Resource.t list -> unit) ->
  unit

(** The variables that have had an entry, in increasing order; some may
    have no live entry left. *)
val vars : t -> Ids.vid list
