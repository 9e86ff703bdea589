(** Pruned SSA construction over both name spaces (Cytron et al.):
    registers are renamed to fresh registers, and the memory variables
    with a singleton [Load] or [Store] in the function to versioned
    resources, with [Rphi]/[Mphi] placed at the pruned iterated
    dominance frontier. Each renamed variable gets an implicit entry
    definition; aliased stores define fresh versions of every renamed
    variable they may touch (the paper's "x4 = foo()"), and calls and
    exit uses list the renamed members of their implicit sets. Every
    other variable stays implicit there, keeps version 0 in the aliased
    [mdefs]/[muses] lists and gets no phi: in each function a variable
    is wholly renamed or wholly unversioned ({!Verify} checks it). *)

open Rp_ir

type idf_engine = Incremental.engine = Cytron | Sreedhar_gao

(** Convert a function that contains no phi instructions into pruned
    SSA form, in place. Placement runs over the function's global names
    (the locations some block reads before defining them there) and
    places exactly the phis of an all-locations placement.
    @raise Invalid_argument when the function already contains phi
    instructions; the function is then left unchanged. *)
val run : ?engine:idf_engine -> Func.t -> unit
