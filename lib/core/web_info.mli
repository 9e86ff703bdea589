(** Per-web reference sets (paper section 4.2): for one SSA web inside
    one interval, the load/store/aliased references, the resources
    defined in the interval split by defining-instruction kind, the phi
    structure, and the unique live-in resource. *)

open Rp_ir
open Rp_analysis

(** An insertion point: the end of a block (before its branch), or
    immediately before a given instruction. *)
type point = At_block_end of Ids.bid | Before_instr of Ids.bid * Instr.t

val point_bid : point -> Ids.bid

type ref_site = Rp_ssa.Webs.site = { instr : Instr.t; bid : Ids.bid }

(** Which resources belong to the web and how the interval defines
    them; read through {!mem}, {!defined}, {!store_defined} and
    {!phi_defined}. *)
type facts

type t = {
  base : Ids.vid;  (** the variable of the web's least member *)
  loads : (ref_site * Resource.t) list;  (** singleton loads of the web *)
  stores : (ref_site * Resource.t) list;  (** singleton stores of the web *)
  aliased_uses : (ref_site * Resource.t) list;
      (** aliased loads (calls, pointer loads, dummies, exit uses)
          using a web resource *)
  phis : (ref_site * Resource.t) list;  (** memory phis of the web *)
  live_in : Resource.t option;
      (** the least member used in the interval but not defined there *)
  multiple_live_in : bool;  (** malformed web: promotion is skipped *)
  facts : facts;
}
(** Each list is in reverse scan order: blocks by increasing id,
    instructions in block order. *)

(** Every web of the interval, in {!Rp_ssa.Webs.in_blocks} order, from
    one scan of its blocks ({!Rp_ssa.Webs.scan}, over the dense resource
    ids [ids] — by default a fresh numbering of the function — in
    [arena]): the recorded occurrences are bucketed by web.
    @raise Invalid_argument when a resource of a promotable variable is
    outside [ids]. *)
val of_interval :
  ?ids:Res_ids.t ->
  ?arena:Rp_ssa.Webs.arena ->
  Resource.table ->
  Func.t ->
  Intervals.t ->
  t list

(** Scan the interval's blocks and build the sets for the web holding
    the given resources.  Works for resources of any id.
    @raise Invalid_argument on an empty web. *)
val compute : Func.t -> Intervals.t -> Resource.ResSet.t -> t

(** The same webs' sets rebuilt from the current IR in one scan, with
    occurrence dispatch through an array (from [arena]) over the dense
    resource ids [ids] (by default a fresh numbering of the function).
    Results line up with the input list.
    @raise Invalid_argument if a web holds a resource outside [ids]. *)
val rescan :
  ?ids:Res_ids.t ->
  ?arena:Res_ids.arena ->
  Func.t ->
  Intervals.t ->
  t list ->
  t list

(** The members, least first. *)
val members : t -> Resource.t list

val mem : t -> Resource.t -> bool

(** Some instruction of the interval defines a resource of the web. *)
val has_defs : t -> bool

(** Defined in the interval (by a store, a phi or an aliased store). *)
val defined : t -> Resource.t -> bool

val store_defined : t -> Resource.t -> bool

val phi_defined : t -> Resource.t -> bool

(** A leaf operand: not defined by a phi instruction of this interval. *)
val is_leaf : t -> Resource.t -> bool

(** {2 Slots}

    Dense indices for the members, for per-web arrays: the web's
    version range comes first. *)

(** One past the largest slot. *)
val slots : t -> int

(** The member's slot, or -1 for a resource outside the web. *)
val slot : t -> Resource.t -> int
