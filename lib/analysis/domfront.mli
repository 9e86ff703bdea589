(** Dominance frontiers and iterated dominance frontiers (Cytron et
    al. [CFR+91]) — where phi instructions go, both during SSA
    construction and in the paper's incremental updater. *)

open Rp_ir

type t

val compute : Func.t -> Dom.t -> t

(** {!compute}, once per tree: the frontier is kept with [dom]
    ({!Dom.set_derived}), so with a tree from {!Dom.compute_cached} it
    is computed once per CFG generation. *)
val cached : Func.t -> Dom.t -> t

val frontier : t -> Ids.bid -> Bitset.t

(** Iterated dominance frontier: the limit of DF(S), DF(S ∪ DF(S)), … *)
val iterated : t -> Bitset.t -> Bitset.t

(** Work space for {!iterated_in}, sized for one frontier. *)
type scratch

val scratch : t -> scratch

(** {!iterated} without allocating: the result lives in the scratch and
    is overwritten by the next query through it. *)
val iterated_in : scratch -> t -> Bitset.t -> Bitset.t
