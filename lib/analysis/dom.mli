(** Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm,
    with preorder timestamps for O(1) dominance queries. *)

open Rp_ir

type t

val compute : Func.t -> t

(** Like {!compute}, but reuses the tree cached on
    [f.Func.analysis_cache] when the function's [cfg_gen] stamp is
    unchanged since it was computed. Hits and misses are counted in
    the ["analysis.domcache.hits"/"misses"] metrics. Safe under the
    domain pool as long as each function is worked on by one task at a
    time (the pipeline's invariant). *)
val compute_cached : Func.t -> t

(** The analysis kept with the tree by {!set_derived}, if any: a result
    computed from the tree and the CFG it was built on, which stays
    valid as long as the tree does (and so, for a tree from
    {!compute_cached}, for the same [cfg_gen]). *)
val derived : t -> Func.cache_entry option

val set_derived : t -> Func.cache_entry -> unit

(** The entry block the tree was computed from. *)
val entry : t -> Ids.bid

(** Immediate dominator; [None] for the entry. *)
val idom : t -> Ids.bid -> Ids.bid option

(** Dominator-tree children. *)
val children : t -> Ids.bid -> Ids.bid list

val reachable : t -> Ids.bid -> bool

(** Reflexive dominance, O(1). *)
val dominates : t -> a:Ids.bid -> b:Ids.bid -> bool

val strictly_dominates : t -> a:Ids.bid -> b:Ids.bid -> bool

(** Depth in the dominator tree; the entry has depth 0. *)
val depth : t -> Ids.bid -> int

(** Least common ancestor in the dominator tree — the paper's "least
    common dominator", used as the preheader of improper intervals.
    @raise Invalid_argument on an empty list. *)
val least_common_dominator : t -> Ids.bid list -> Ids.bid

(** Apply [f] at every block from [b] up to the entry, inclusive. *)
val iter_dom_path : t -> Ids.bid -> f:(Ids.bid -> unit) -> unit
