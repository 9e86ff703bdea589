(** Memory SSA web construction (paper section 4.2, Figure 3): the
    equivalence classes of singleton resources under "operands/target
    of the same phi instruction in the interval", closed transitively.
    Resources touching no phi form singleton webs — the finer
    granularity the paper advertises. *)

open Rp_ir

(** [table_order hash keys] is the order in which [Hashtbl.iter] visits
    the keys of a [Hashtbl.create 16] table after adding [keys] in
    array order, where [hash k] is the [Hashtbl.hash] of key [k]. *)
val table_order : (int -> int) -> int array -> int array

(** All webs of the given block set; each web is its member list. Only
    resources of promotable variables are considered.

    The union-find runs over the dense resource ids [ids] (by default a
    fresh numbering of the function), in int arrays from [arena]. Classes,
    their order and the order of their members are exactly those of
    {!Union_find.classes} after the same [add]/[union] sequence.
    @raise Invalid_argument when a resource of the blocks is outside
    [ids]. *)
val in_blocks :
  ?ids:Res_ids.t ->
  ?arena:Res_ids.arena ->
  Resource.table ->
  Func.t ->
  Ids.IntSet.t ->
  Resource.t list list
