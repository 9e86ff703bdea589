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

type ref_site = { instr : Instr.t; bid : Ids.bid }

type t = {
  base : Ids.vid;
  resources : Resource.ResSet.t;
  loads : (ref_site * Resource.t) list;  (** singleton loads of the web *)
  stores : (ref_site * Resource.t) list;  (** singleton stores of the web *)
  aliased_uses : (ref_site * Resource.t) list;
      (** aliased loads (calls, pointer loads, dummies, exit uses)
          using a web resource *)
  phis : (ref_site * Resource.t) list;  (** memory phis of the web *)
  def_res : Resource.ResSet.t;  (** resources defined in the interval *)
  store_res : Resource.ResSet.t;  (** subset defined by singleton stores *)
  phi_res : Resource.ResSet.t;  (** subset defined by interval phis *)
  live_in : Resource.t option;  (** unique resource defined outside *)
  multiple_live_in : bool;  (** malformed web: promotion is skipped *)
}

(** Scan the interval's blocks and build the sets for the web holding
    the given resources.
    @raise Invalid_argument on an empty web. *)
val compute : Func.t -> Intervals.t -> Resource.ResSet.t -> t

(** Build the sets for every web of the interval in one scan —
    occurrence dispatch through an array (from [arena]) over the dense
    resource ids [ids] (by default a fresh numbering of the function)
    instead of a scan per web.  Results line up with the input list.
    @raise Invalid_argument if any web is empty or holds a resource
    outside [ids]. *)
val compute_all :
  ?ids:Res_ids.t ->
  ?arena:Res_ids.arena ->
  Func.t ->
  Intervals.t ->
  Resource.ResSet.t list ->
  t list

val has_defs : t -> bool

val store_defined : t -> Resource.t -> bool

val phi_defined : t -> Resource.t -> bool

(** A leaf operand: not defined by a phi instruction of this interval. *)
val is_leaf : t -> Resource.t -> bool
