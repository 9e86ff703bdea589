(** Loop-based register promotion in the style of Lu and Cooper
    (PLDI 1997), the baseline from the paper's related-work section:
    per loop, a variable is promotable iff the loop contains no
    ambiguous reference to it; no profile; a single call in the loop
    disqualifies everything the call may touch. It runs as a policy over
    {!Rp_core.Promote.promote_in_interval}. *)

open Rp_ir
open Rp_analysis

val promote_function :
  Func.t -> Resource.table -> Intervals.tree -> Rp_core.Promote.stats

(** Every function with an interval tree, in program order; the totals
    are {!Rp_core.Promote.accumulate}d over them. *)
val promote_prog :
  Func.prog -> (string * Intervals.tree) list -> Rp_core.Promote.stats
