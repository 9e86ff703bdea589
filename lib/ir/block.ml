(* Basic blocks.

   A block holds its phi instructions separately from its body (phis are
   conceptually parallel assignments at block entry), plus a single
   terminator.  Both sections are order-maintained {!Iseq} sequences
   sharing the function's iid→node index, so positional edits are O(1).
   The predecessor list is a cache maintained by {!Cfg}.

   "The last instruction of a basic block" in the paper is its branch;
   inserting a load "before the last instruction of L" therefore means
   appending to the body, before the terminator. *)

type term =
  | Jmp of Ids.bid
  | Br of { cond : Instr.operand; t : Ids.bid; f : Ids.bid }
  | Ret of Instr.operand option

type t = {
  bid : Ids.bid;
  phis : Iseq.t;
  body : Iseq.t;
  mutable term : term;
  mutable preds : Ids.bid list;  (** cache; recomputed by {!Cfg.recompute_preds} *)
  mutable dead : bool;  (** unreachable blocks are marked, not removed *)
}

let make ~(bid : Ids.bid) ~(index : Iseq.index) : t =
  {
    bid;
    phis = Iseq.create ~tag:bid ~index;
    body = Iseq.create ~tag:bid ~index;
    term = Ret None;
    preds = [];
    dead = false;
  }

let succs (b : t) =
  match b.term with
  | Jmp l -> [ l ]
  | Br { t; f; _ } -> if t = f then [ t ] else [ t; f ]
  | Ret _ -> []

(* Allocation-free successor visit; duplicate Br targets are visited
   once, like {!succs}. *)
let iter_succs (fn : Ids.bid -> unit) (b : t) =
  match b.term with
  | Jmp l -> fn l
  | Br { t; f; _ } ->
      fn t;
      if f <> t then fn f
  | Ret _ -> ()

let term_uses (b : t) =
  match b.term with
  | Br { cond; _ } -> Instr.regs_of_operand cond
  | Ret (Some o) -> Instr.regs_of_operand o
  | Jmp _ | Ret None -> []

(* Replace every branch target [old_t] with [new_t]. *)
let retarget (b : t) ~(old_t : Ids.bid) ~(new_t : Ids.bid) =
  match b.term with
  | Jmp l -> if l = old_t then b.term <- Jmp new_t
  | Br { cond; t; f } ->
      let t = if t = old_t then new_t else t in
      let f = if f = old_t then new_t else f in
      b.term <- Br { cond; t; f }
  | Ret _ -> ()

(* All instructions of the block in order, phis first. *)
let instrs (b : t) =
  Iseq.fold_right List.cons b.phis (Iseq.fold_right List.cons b.body [])

let iter_instrs f (b : t) =
  Iseq.iter f b.phis;
  Iseq.iter f b.body

(* Insert [i] in the body immediately before the instruction with id
   [iid].  Raises [Not_found] if no such instruction is in the body. *)
let insert_before (b : t) ~(iid : Ids.iid) (i : Instr.t) =
  Iseq.insert_before b.body ~iid i

(* Insert [i] immediately after the instruction with id [iid]. *)
let insert_after (b : t) ~(iid : Ids.iid) (i : Instr.t) =
  Iseq.insert_after b.body ~iid i

(* Insert at the end of the body (i.e. just before the terminator). *)
let insert_at_end (b : t) (i : Instr.t) = Iseq.push_back b.body i

(* Insert at the beginning of the body (after the phis). *)
let insert_at_start (b : t) (i : Instr.t) = Iseq.push_front b.body i

(* Prepend: a freshly placed phi shadows the section's older entries
   during renaming walks, and callers depend on that. *)
let add_phi (b : t) (i : Instr.t) = Iseq.push_front b.phis i

(* Insert a phi [i] immediately after the phi with instruction id [iid];
   used by materializeStoreValue to keep the register phi adjacent to
   the memory phi it mirrors. *)
let insert_phi_after (b : t) ~(iid : Ids.iid) (i : Instr.t) =
  Iseq.insert_after b.phis ~iid i

(* Replace the opcode of [i], an instruction of the block; an edit of
   its section, like an insertion or a removal. *)
let set_op (b : t) (i : Instr.t) op =
  Iseq.set_op (if Instr.is_phi i then b.phis else b.body) i op

(* Grows with every edit of either section; equal stamps mean the
   block's instructions and opcodes are unchanged. *)
let stamp (b : t) = Iseq.edits b.phis + Iseq.edits b.body

let remove_instr (b : t) ~(iid : Ids.iid) =
  Iseq.remove b.phis ~iid;
  Iseq.remove b.body ~iid

let find_instr (b : t) ~(iid : Ids.iid) =
  match Iseq.find b.phis ~iid with
  | Some i -> Some i
  | None -> Iseq.find b.body ~iid
