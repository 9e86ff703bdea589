(** Memory SSA web construction (paper section 4.2, Figure 3): the
    equivalence classes of singleton resources under "operands/target
    of the same phi instruction in the interval", closed transitively.
    Resources touching no phi form singleton webs — the finer
    granularity the paper advertises. *)

open Rp_ir

(** An instruction holding memory occurrences, and its block. *)
type site = { instr : Instr.t; bid : Ids.bid }

(** {2 The interval scan} *)

(** Occurrence roles: what an instruction does with a resource. *)

val role_load : int  (** the source of a singleton load *)

val role_store : int  (** the target of a singleton store *)

val role_phi : int  (** the target of a memory phi *)

val role_phi_src : int
(** a source of a memory phi; recorded right after the phi's target *)

val role_alias_def : int  (** a may-def of a call or pointer store *)

val role_alias_use : int
(** a use by an aliased load: call, pointer load, dummy, exit use *)

(** [occ_what] holds [(site lsl role_bits) lor role]. *)
val role_bits : int

val role_mask : int

(** Storage for {!scan}, reused from one interval of a function to the
    next: the function's resource ids, per-id int arrays, the occurrence
    list of the last scan, and one record per block of the occurrences
    a walk of the block found, with the block's {!Rp_ir.Block.stamp} at
    that walk.  A scan reuses a block's record while the stamp holds and
    walks the block again once it moved, so every opcode rewrite of a
    block that an arena has read must go through {!Rp_ir.Block.set_op}.
    Ids and records belong to one function: a scan of another function
    drops them and reuses the storage. *)
type arena

(** An arena without records. *)
val arena : unit -> arena

(** Drop the arena's ids and records, and with them its references to
    the function's IR; the storage stays for the next function. *)
val release : arena -> unit

(** [recorder a tab f] is a visitor for one walk over [f]'s
    instructions in scan order ([f]'s blocks by increasing id, each
    block's instructions in order; blocks may be skipped), such as
    {!Occ_index.build}'s [on_instr]: it takes the record of every block
    it visits, so the first scan need not walk them again. *)
val recorder : arena -> Resource.table -> Func.t -> Ids.bid -> Instr.t -> unit

(** One interval scan. Every array lives in the arena: the scan is valid
    until the next scan with that arena. *)
type scan = private {
  nocc : int;  (** occurrences listed, in scan order *)
  occ_id : int array;  (** the resource id of each occurrence *)
  occ_what : int array;  (** its site and role *)
  sites : site array;  (** indexed by the site of [occ_what] *)
  nwebs : int;
  web : int array;
      (** per resource id: its web's position, or -1 for a resource in
          no web.  Webs are numbered by the first occurrence of a
          member in the scan. *)
  nmembers : int;
  members : int array;
      (** the ids of all web members, in first-occurrence order *)
  res : Resource.t array;  (** the resource of each id *)
}

(** Scan the blocks: run the union-find and list every occurrence of a
    web candidate — a resource of a promotable variable that the
    function renamed into memory SSA (version > 0: {!Construct} leaves
    every other variable at version 0), or a source of a memory phi
    whose target is one — in scan order: blocks by
    increasing id, instructions in block order, and within an
    instruction the phi target before its sources and may-defs before
    uses.  Every listed resource is a member of a web.  The blocks are
    read through [arena]'s block records (by default a fresh arena,
    which walks them all). *)
val scan : ?arena:arena -> Resource.table -> Func.t -> Ids.IntSet.t -> scan
