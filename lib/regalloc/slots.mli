(** Physical frame slots for the compiled backend: one greedy walk of
    the dominator tree on SSA form, no interference graph, at most
    MAXLIVE slots ({!Rp_analysis.Pressure.maxlive}), chosen so that
    most out-of-SSA moves vanish.  The function must be in strict SSA
    form with no critical edges; the caller then lowers it with
    [Rp_ssa.Destruct.lower ~loc], each parallel copy over these slots. *)

open Rp_ir

type t = {
  slot_of : int array;
      (** reg -> slot, over [0 .. next_reg-1] at assignment time; -1 for
          a register that never occurs or whose definition is never
          read (the backend sends such writes to a discard slot) — a
          never-read copy target still shares its source's slot *)
  nslots : int;  (** slots used: at most MAXLIVE *)
}

(** Assign slots for a strict-SSA function without critical edges. *)
val assign : Func.t -> t
