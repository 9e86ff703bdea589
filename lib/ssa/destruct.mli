(** Out-of-SSA translation: register phis become sequentialised copies
    at the end of each predecessor (cycles broken with temporaries),
    memory phis are dropped and all resources rewritten to version 0 —
    the paper's "all of the singleton memory resources that refer to
    the same memory location must be replaced by one unique name".
    Assumes no critical edges. *)

open Rp_ir

(** Sequentialise one parallel assignment over the locations [loc]
    gives the registers (default: each register is its own location),
    breaking each cycle with a fresh temporary.  A move whose source
    already sits in its destination's location is kept, first. *)
val sequentialise :
  ?loc:(Ids.reg -> int) ->
  Func.t ->
  (Ids.reg * Instr.operand) list ->
  (Ids.reg * Instr.operand) list

(** Lower out of SSA and return the iids of the copies inserted for the
    phi moves — the backend excludes them from fuel and instruction
    accounting, since the oracle engines execute phis as free parallel
    assignments.  [loc] orders each predecessor's moves as in
    {!sequentialise}; a temporary's location is [loc] of its register,
    which must differ from every other location in the move set. *)
val lower : ?loc:(Ids.reg -> int) -> Func.t -> Ids.IntSet.t

val run : Func.t -> unit
