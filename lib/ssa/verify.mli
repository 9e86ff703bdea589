(** SSA invariant checker: single assignment for registers and for the
    resources of renamed memory variables, each memory variable either
    renamed (some occurrence carries a version; then no version-0
    resource of it appears, listed or implicit) or unversioned (only
    version 0: no singleton load or store and no memory phi of it),
    memory phis that join versions of their target's variable only,
    every use dominated by its definition (phi sources at the end of
    their predecessor), plus the structural checks of
    [Rp_ir.Validate]. *)

open Rp_ir

type error = { where : string; what : string }

val check : Resource.table -> Func.t -> error list

val errors_to_string : error list -> string

exception Broken of string

(** @raise Broken when any invariant fails. *)
val assert_ok : Resource.table -> Func.t -> unit

val check_prog : Func.prog -> error list
