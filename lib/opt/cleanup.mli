(** The standard clean-up bundle: one copy propagation then one DCE,
    which leaves nothing for either pass to do on valid SSA. *)

val run : Rp_ir.Func.t -> unit

val run_prog : Rp_ir.Func.prog -> unit
