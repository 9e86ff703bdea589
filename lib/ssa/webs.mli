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

(** An instruction holding memory occurrences, and its block. *)
type site = { instr : Instr.t; bid : Ids.bid }

(** {2 The interval scan} *)

(** Occurrence roles: what an instruction does with a resource. *)

val role_load : int  (** the source of a singleton load *)

val role_store : int  (** the target of a singleton store *)

val role_phi : int  (** the target of a memory phi *)

val role_phi_src : int
(** a source of a memory phi; recorded right after the phi's target *)

val role_alias_def : int  (** a may-def of a call or pointer store *)

val role_alias_use : int
(** a use by an aliased load: call, pointer load, dummy, exit use *)

(** [occ_what] holds [(site lsl role_bits) lor role]. *)
val role_bits : int

val role_mask : int

(** Scratch storage for {!scan}: per-resource int arrays and the
    occurrence record, reused from one interval of a function to the
    next. *)
type arena

val arena : unit -> arena

(** The per-resource arrays, for other passes over the same intervals. *)
val ints : arena -> Res_ids.arena

(** One interval scan. Every array lives in the arena: the scan is valid
    until the next use of that arena. *)
type scan = private {
  ids : Res_ids.t;
  nocc : int;  (** occurrences recorded, in scan order *)
  occ_id : int array;  (** the resource id of each occurrence *)
  occ_what : int array;  (** its site and role *)
  sites : site array;  (** one per instruction with an occurrence *)
  nwebs : int;
  web : int array;
      (** per resource id: its web's position in {!in_blocks} order, or
          -1 for a resource in no web *)
  nmembers : int;
  members : int array;  (** the ids of all web members *)
  mres : Resource.t array;  (** their resources, in the same order *)
  midx : int array;  (** per member id: its index in [members] *)
  order : int array;  (** the member ids in the reference's table order *)
}

(** Scan the blocks once: run the union-find and record every memory
    occurrence of a resource inside [ids] (by default a fresh numbering
    of the function), in scan order — blocks by increasing id,
    instructions in block order, and within an instruction the phi
    target before its sources and may-defs before uses.
    @raise Invalid_argument when a resource of a promotable variable is
    outside [ids]. *)
val scan :
  ?ids:Res_ids.t ->
  ?arena:arena ->
  Resource.table ->
  Func.t ->
  Ids.IntSet.t ->
  scan

(** The resource of a member id. *)
val resource : scan -> int -> Resource.t

(** All webs of the given block set; each web is its member list. Only
    resources of promotable variables are considered.

    Classes, their order and the order of their members are exactly
    those of {!Union_find.classes} after the same [add]/[union]
    sequence.
    @raise Invalid_argument when a resource of the blocks is outside
    [ids]. *)
val in_blocks :
  ?ids:Res_ids.t ->
  Resource.table ->
  Func.t ->
  Ids.IntSet.t ->
  Resource.t list list
