(** Incremental SSA update for cloned definitions (paper section 4.5,
    Figure 11): one batch iterated-dominance-frontier computation
    places candidate phis for all cloned definitions at once, uses are
    renamed to their new reaching definitions by dominator-tree walks,
    phi liveness is propagated by a worklist that builds only the live
    candidates, and definitions left without uses are deleted
    (cascading), so the transformation introduces no dead code.

    Deleting a dead store is sound in this IR because every observation
    of memory is an explicit use (loads, aliased loads, the [Exit_use]
    at each return). Definitions that are side effects of aliased
    instructions are never deleted. *)

open Rp_ir

type engine = Cytron | Sreedhar_gao

(** ["cytron"] / ["sreedhar-gao"], the names the CLI and bench use. *)
val engine_to_string : engine -> string

(** Inverse of {!engine_to_string}; also accepts the ["sg"]
    abbreviation. [None] on unknown names. *)
val engine_of_string : string -> engine option

(** [update_for_cloned_resources f ~cloned_res] repairs SSA form after
    the definitions of [cloned_res] (all of one base variable) were
    inserted. The paper's oldResSet is completed internally to every
    resource of that variable.

    [protect] lists resources whose definitions must survive the
    dead-code step even while unused — the per-definition baseline
    updater needs it for the clones it has not wired up yet.

    Every walk over the variable's instructions reads [index] (by
    default one built for the call), which must be current for [f]:
    the cloned definitions registered with {!Occ_index.note}. The
    phis the update builds are registered in it, so it stays current
    for the caller. *)
val update_for_cloned_resources :
  ?engine:engine ->
  ?protect:Resource.ResSet.t ->
  ?index:Occ_index.t ->
  Func.t ->
  cloned_res:Resource.ResSet.t ->
  unit

(** Incrementally convert a variable whose references are still
    unversioned (a resource "a compiler phase adds ... with multiple
    definitions and uses") into SSA form — the paper's other advertised
    use of the updater. {!Construct} leaves every variable a function
    never loads or stores singly at version 0; a pass that gives one of
    them a singleton access converts it with this. Stores and
    may-definitions get fresh versions, uses are renamed to their
    reaching definitions, phis are placed where needed, and each call
    and exit use that holds the variable implicitly lists it; the
    result equals construction from scratch up to renaming. *)
val convert_new_variable : ?engine:engine -> Func.t -> Ids.vid -> unit
