(** Register interference graph from liveness (Chaitin's condition,
    with copy slack: a copy's source and target do not interfere
    through the copy itself). On SSA form the slack-free graph is
    chordal.

    Represented as a packed bitset matrix: O(1) edge test, O(nregs/63)
    per-row iteration, and a build dominated by the liveness walk
    rather than set allocation. *)

open Rp_ir

type t

val interfere : t -> Ids.reg -> Ids.reg -> bool

val num_nodes : t -> int

(** Iterate the neighbours of a register in increasing id order. *)
val iter_adj : t -> Ids.reg -> (Ids.reg -> unit) -> unit

(** Registers that actually occur in the function. *)
val occurring : Func.t -> Ids.IntSet.t

(** Build the graph from liveness. [copy_slack] (default true) gives
    copies the usual slack; pass [~copy_slack:false] for the pure
    Chaitin-condition graph, which on strict SSA form is chordal with
    chromatic number exactly MAXLIVE
    ({!Rp_analysis.Pressure.maxlive}). Parameters are treated as
    defined in parallel at function entry. *)
val build : ?copy_slack:bool -> Func.t -> t
