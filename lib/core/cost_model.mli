(** The promotion cost model (paper section 4.3), as a first-class
    value.

    A {!t} carries the profitability threshold and the optional
    register budget; {!evaluate} prices one web against the profile
    (the frequency-weighted loads/stores saved minus the compensation
    code inserted), and {!admit} turns that price into a {!verdict} —
    promote, or skip with a structured reason. The promoter threads a
    {!pressure_ctx} through admission when a budget is set, so
    admission can refuse webs once the predicted register pressure of
    the enclosing interval saturates the budget (the
    Bouchez/Darte/Rastello reuse-vs-pressure tradeoff).

    [paper] — threshold 0, no budget — reproduces the paper's
    behaviour exactly: every non-negative-profit web is promoted and
    pressure is never consulted. *)

open Rp_ir
open Rp_analysis

type t = {
  min_profit : float;  (** promote when profit ≥ this; the paper: 0 *)
  regs : int option;
      (** register budget; [None] (the paper's behaviour) never blocks
          a web on pressure *)
}

val paper : t
(** [{ min_profit = 0.0; regs = None }]. *)

(** {2 The section 4.3 sets} *)

module PointSet : Set.S with type elt = Resource.t * Ids.bid

(** loads_added: for each pair (x, l), a load of x goes at the end of
    block l — the phi leaves not defined by a store of the web. *)
val loads_added : Web_info.t -> PointSet.t

(** The phi targets an aliased load transitively depends on. *)
val dependent_phis : Web_info.t -> Resource.ResSet.t

(** stores_added after the dominance pruning: insert a store of the
    resource before each point. *)
val stores_added :
  Func.t -> Dom.t -> Web_info.t -> (Resource.t * Web_info.point) list

(** {2 Pricing} *)

type eval = {
  profit : float;
      (** frequency-weighted benefit minus cost, store side included
          only when [remove_stores] *)
  effective : bool;
      (** the web has at least one removable reference; a profitable
          web with nothing to rewrite is still skipped *)
  remove_stores : bool;
      (** the store-removal side pays for itself (and the caller's
          ablation switch allows it) *)
  la : PointSet.t;  (** loads_added, reused by the transformation *)
  sa : (Resource.t * Web_info.point) list;  (** stores_added, ditto *)
}

(** Price one web against [freq], the block frequencies stored on the
    function indexed by block id ({!Rp_ir.Func.freq_snapshot}).
    [allow_store_removal] is the ablation master switch from the
    promoter's config. *)
val evaluate :
  allow_store_removal:bool ->
  freq:float array ->
  Func.t ->
  Dom.t ->
  Intervals.t ->
  Web_info.t ->
  eval

(** The web has no singleton load and no singleton store, so nothing
    of it is removable: {!admit} skips it as [Not_profitable] under
    every model and every profile, and a caller can decide it without
    {!evaluate}. *)
val nothing_to_remove : Web_info.t -> bool

(** {2 Admission} *)

type pressure_ctx = {
  budget : int;  (** the register budget [k] *)
  interval_pressure : int;
      (** MAXLIVE over the interval (preheader included) before any
          web of this interval was promoted *)
  mutable growth : int;
      (** live ranges added by webs admitted so far: each promoted web
          materialises one value held across the interval *)
}

val make_ctx : budget:int -> interval_pressure:int -> pressure_ctx

type skip_reason =
  | Not_profitable  (** profit below threshold, or nothing to rewrite *)
  | Pressure_saturated
      (** admitting one more web would push predicted pressure past
          the budget *)

val skip_reason_to_string : skip_reason -> string

type verdict = Admit | Skip of skip_reason

(** The admission decision for an evaluated web. With [None] (no
    budget) only profitability is tested — the paper's rule. *)
val admit : t -> eval -> pressure_ctx option -> verdict

(** Record an admitted web's predicted live-range growth. *)
val note_promoted : pressure_ctx option -> unit
