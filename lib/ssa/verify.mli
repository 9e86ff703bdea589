(** SSA invariant checker: single assignment for registers and memory
    resources, no version-0 resources, memory phis that join versions
    of their target's variable only, every use dominated by its
    definition (phi sources at the end of their predecessor), plus the
    structural checks of [Rp_ir.Validate]. *)

open Rp_ir

type error = { where : string; what : string }

val check : Resource.table -> Func.t -> error list

val errors_to_string : error list -> string

exception Broken of string

(** @raise Broken when any invariant fails. *)
val assert_ok : Resource.table -> Func.t -> unit

val check_prog : Func.prog -> error list
