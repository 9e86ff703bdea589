(** Graph coloring and the paper's Table 3 count ("number of colors
    needed to color the register interference graph").

    On strict SSA form the interference graph is chordal and its
    chromatic number is MAXLIVE, so {!analyse} reports MAXLIVE from
    {!Rp_analysis.Pressure} and builds no graph unless a spill estimate
    is asked for. {!color} — Chaitin-style minimum-degree
    simplification with optimistic select — gives a proper coloring
    whose count is only an upper bound on the chromatic number; it
    colors {!Slots}' coalesced quotient graph, which is not chordal,
    and serves the tests as the oracle for {!analyse}. *)

open Rp_ir

type result = {
  colors : int;  (** number of distinct colors used *)
  assignment : (Ids.reg, int) Hashtbl.t;
}

val color : Interference.t -> Ids.IntSet.t -> result

type summary = {
  s_colors : int;
      (** colors the interference graph needs: MAXLIVE, its chromatic
          number on strict SSA *)
  s_maxlive : int;  (** MAXLIVE, the largest number of live registers *)
  s_spills : int option;
      (** Chaitin spill estimate at the budget [k]; [None] when the
          analysis ran unbounded *)
}

(** One function's Table 3 row: colors and MAXLIVE from one liveness
    walk and, with [~k:(Some k)], the spill estimate at that budget —
    the only part that builds an {!Interference} graph. *)
val analyse : Func.t -> k:int option -> summary

(** Chaitin-style spill estimation for a machine with [k] registers:
    the number of live ranges that cannot be simplified — the concrete
    cost of the pressure increase Table 3 reports. Shares its
    simplification loop, and so its removal order, with {!color}. *)
val count_spills : Interference.t -> Rp_ir.Ids.IntSet.t -> k:int -> int

(** {!count_spills} on the function's copy-slack interference graph. *)
val spills_for_func : Func.t -> k:int -> int

(** No interfering pair shares a color; exposed for the property
    tests. *)
val proper : Interference.t -> result -> bool
