(** Use index over the memory resources of a function in SSA form.
    Rebuilt by a single scan wherever the code has been transformed. *)

open Rp_ir

type use_site =
  | Use_at of { bid : Ids.bid; instr : Instr.t }
  | Use_phi_src of { phi_bid : Ids.bid; pred : Ids.bid; instr : Instr.t }
      (** for dominance purposes this use happens at the end of [pred] *)

type t

val build : Func.t -> t

(** Index only the resources of one variable.  Same scan, but skips the
    map bookkeeping for every other base — promotion queries a single
    web's variable, so this is the version it wants. *)
val build_for_base : Func.t -> base:Ids.vid -> t

val uses_of : t -> Resource.t -> use_site list

val has_uses : t -> Resource.t -> bool

(** The block a use occurs in for dominance checks. *)
val use_block : use_site -> Ids.bid
