(** The paper's Table 3 count ("number of colors needed to color the
    register interference graph") and Chaitin spill estimates.

    On strict SSA form the interference graph is chordal and its
    chromatic number is MAXLIVE, so {!analyse} reports MAXLIVE from
    {!Rp_analysis.Pressure} and builds no graph unless a spill estimate
    is asked for.  The tests hold it to a coloring oracle over
    {!simplify}'s removal order. *)

open Rp_ir

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

(** Chaitin simplification of the graph restricted to [nodes] with a
    register budget [k]: remove a node of degree below [k] while one
    exists, else count the busiest node as a spill and remove it.
    Returns the removal order, last removed first, and the spill
    count; with [k = max_int] nothing spills and the order is pure
    minimum degree. *)
val simplify : Interference.t -> Ids.IntSet.t -> k:int -> Ids.reg list * int

(** Chaitin-style spill estimation for a machine with [k] registers:
    the number of live ranges that cannot be simplified — the concrete
    cost of the pressure increase Table 3 reports. *)
val count_spills : Interference.t -> Ids.IntSet.t -> k:int -> int

(** {!count_spills} on the function's copy-slack interference graph. *)
val spills_for_func : Func.t -> k:int -> int
