(** Physical slot assignment for the compiled backend: aggressive
    coalescing of copy-related webs (phi-lowering moves and ordinary
    copies) over the copy-slack interference graph, then Chaitin-style
    coloring of the quotient graph.  Every virtual register of a
    lowered (out-of-SSA) function maps to one physical slot in the
    frame. *)

open Rp_ir

type t = {
  slot_of : int array;  (** reg -> slot; -1 for regs that never occur *)
  nslots : int;  (** distinct slots = colors of the quotient graph *)
}

(** Assign slots for a lowered function (no register phis). *)
val assign : Func.t -> t
