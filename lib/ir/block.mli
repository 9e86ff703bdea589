(** Basic blocks: a phi section, a body, and one terminator.  Both
    instruction sections are {!Iseq} sequences, so every positional
    edit here is O(1).

    "The last instruction of a basic block" in the paper is its branch,
    so inserting "before the last instruction of L" is
    {!insert_at_end}. *)

type term =
  | Jmp of Ids.bid
  | Br of { cond : Instr.operand; t : Ids.bid; f : Ids.bid }
      (** two-way branch: taken when the condition is non-zero *)
  | Ret of Instr.operand option

type t = {
  bid : Ids.bid;
  phis : Iseq.t;  (** parallel assignments at block entry *)
  body : Iseq.t;
  mutable term : term;
  mutable preds : Ids.bid list;
      (** cache; maintained by {!Cfg.recompute_preds} *)
  mutable dead : bool;  (** unreachable blocks are marked, not removed *)
}

(** Fresh empty block on the given shared instruction index
    ({!Func.add_block} is the normal entry point). *)
val make : bid:Ids.bid -> index:Iseq.index -> t

val succs : t -> Ids.bid list

(** Allocation-free successor visit; duplicate [Br] targets are
    visited once, like {!succs}. *)
val iter_succs : (Ids.bid -> unit) -> t -> unit

(** Registers read by the terminator. *)
val term_uses : t -> Ids.reg list

(** Replace every branch target [old_t] with [new_t]. *)
val retarget : t -> old_t:Ids.bid -> new_t:Ids.bid -> unit

(** All instructions in order, phis first (freshly consed). *)
val instrs : t -> Instr.t list

val iter_instrs : (Instr.t -> unit) -> t -> unit

(** Insert in the body immediately before the instruction with id
    [iid].
    @raise Not_found when no such instruction is in the body. *)
val insert_before : t -> iid:Ids.iid -> Instr.t -> unit

(** Insert in the body immediately after the instruction with id [iid].
    @raise Not_found when no such instruction is in the body. *)
val insert_after : t -> iid:Ids.iid -> Instr.t -> unit

(** Append to the body (just before the terminator). *)
val insert_at_end : t -> Instr.t -> unit

(** Prepend to the body (after the phis). *)
val insert_at_start : t -> Instr.t -> unit

(** Prepend to the phi section (a freshly placed phi shadows older
    entries during renaming walks; callers depend on that). *)
val add_phi : t -> Instr.t -> unit

(** Insert a phi immediately after the phi with id [iid]; used by
    materializeStoreValue to keep a register phi adjacent to the memory
    phi it mirrors.
    @raise Not_found when no such phi exists. *)
val insert_phi_after : t -> iid:Ids.iid -> Instr.t -> unit

(** Remove the instruction with the given id from the phi section or
    body; no-op when absent. *)
val remove_instr : t -> iid:Ids.iid -> unit

(** [set_op b i op] replaces the opcode of [i], an instruction of [b].
    A pass that keeps what it read from a block rewrites opcodes
    through this, so the rewrite moves {!stamp}. *)
val set_op : t -> Instr.t -> Instr.opcode -> unit

(** The block's edit stamp: it grows with every insertion, removal and
    {!set_op} in either section, so an unchanged stamp means unchanged
    instructions. *)
val stamp : t -> int

(** O(1) through the shared index. *)
val find_instr : t -> iid:Ids.iid -> Instr.t option
