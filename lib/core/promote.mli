(** The register promotion algorithm (paper section 4): bottom-up over
    the interval tree, one SSA web at a time, profile-driven, with
    partial promotion around aliased references and the incremental SSA
    updater repairing memory SSA form after stores are cloned.

    Profitability and admission live in {!Cost_model}; the config
    carries a cost-model value. With a register budget set
    ([cost.regs = Some k]) each interval's webs are ordered by
    descending frequency-weighted profit and admitted greedily until
    the predicted pressure saturates the budget. *)

open Rp_ir
open Rp_analysis
open Rp_ssa

type config = {
  engine : Incremental.engine;  (** IDF engine for the SSA updater *)
  allow_store_removal : bool;  (** master switch, for the ablation *)
  cost : Cost_model.t;
      (** profitability threshold and register budget; the paper's
          behaviour is {!Cost_model.paper} *)
  insert_dummies : bool;
      (** leave dummy aliased loads for the parent interval; off for
          the loop-based baseline *)
}

val default_config : config
(** [Cost_model.paper], Cytron engine, store removal on, dummies on. *)

type stats = {
  mutable webs_seen : int;
  mutable webs_promoted : int;
  mutable webs_promoted_no_defs : int;
  mutable webs_store_removal : int;
  mutable webs_skipped_profit : int;
  mutable webs_skipped_pressure : int;
      (** skipped with {!Cost_model.Pressure_saturated}; always 0
          without a register budget *)
  mutable webs_skipped_malformed : int;
  mutable loads_replaced : int;
  mutable loads_inserted : int;
  mutable stores_inserted : int;
  mutable stores_deleted : int;
  mutable dummies_added : int;
  mutable reg_phis_added : int;
}

val empty_stats : unit -> stats

(** Pure field-by-field sum; neither argument is mutated. *)
val add : stats -> stats -> stats

(** Field/value pairs in declaration order, for the metrics exporter
    and the JSON report. *)
val to_alist : stats -> (string * int) list

(** Fold the second stats record into the first — a thin mutable
    wrapper over {!add}. *)
val accumulate : stats -> stats -> unit

exception Promotion_bug of string
(** An internal invariant of the transformation failed. *)

(** What promotion keeps for one function from interval to interval:
    the occurrence index and the interval scans' block records
    ({!Rp_ssa.Webs.arena}), both kept current through every edit, and
    the blocks holding dummies not yet cleaned up. *)
type state

(** The state of a function about to be promoted, with a fresh scan
    arena: one walk builds the occurrence index and takes every block's
    record. *)
val state : Func.t -> Resource.table -> state

(** The state's scan arena, holding the block records that the next
    interval scan reuses. *)
val arena : state -> Rp_ssa.Webs.arena

(** promoteInInterval (paper Figure 2) for one interval of the state's
    function whose children were already processed with the same
    state. [on_edit] is called with the state's occurrence index after
    each web and each run of the incremental updater. With [admit],
    only the interval's webs it accepts are seen, priced and promoted;
    it is asked once per web, before the first web is promoted. The
    loop-based baseline passes its legality filter here. *)
val promote_in_interval :
  ?on_edit:(Rp_ssa.Occ_index.t -> unit) ->
  ?admit:(Web_info.t -> bool) ->
  config ->
  state ->
  stats ->
  Intervals.t ->
  unit

(** Promote a whole function. Expects it normalised (no critical edges,
    dedicated preheaders/tails), in SSA form, carrying a profile. One
    {!state} is built for the function and kept current by every
    interval; [on_edit] is called with its occurrence index after each
    web and each run of the incremental updater, for tests that check
    it against a fresh build. *)
val promote_function :
  ?cfg:config ->
  ?on_edit:(Rp_ssa.Occ_index.t -> unit) ->
  Func.t ->
  Resource.table ->
  Intervals.tree ->
  stats
