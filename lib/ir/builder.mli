(** Ergonomic construction of IR functions, used by the MiniC lowering
    pass and by tests/examples that build CFGs by hand.

    The builder keeps a current insertion block; [emit]-style functions
    append to it and the terminator functions close it. *)

type t

val create : name:string -> t

val func : t -> Func.t

val new_block : t -> Block.t

val set_block : t -> Block.t -> unit

(** @raise Invalid_argument when no block is current. *)
val cur_block : t -> Block.t

val fresh_reg : ?name:string -> t -> Ids.reg

(** Append an instruction to the current block and return it. *)
val emit : t -> Instr.opcode -> Instr.t

(** {2 Value-producing instructions} — each returns the result operand. *)

val bin : t -> Instr.binop -> Instr.operand -> Instr.operand -> Instr.operand

val un : t -> Instr.unop -> Instr.operand -> Instr.operand

val load : t -> ?name:string -> Ids.vid -> Instr.operand

val addr_of : t -> Ids.vid -> Instr.operand -> Instr.operand

val ptr_load : t -> Instr.operand -> may_use:Ids.vid list -> Instr.operand

(** {2 Effects} *)

val copy : t -> dst:Ids.reg -> Instr.operand -> unit

val store : t -> Ids.vid -> Instr.operand -> unit

val ptr_store : t -> Instr.operand -> Instr.operand -> may_def:Ids.vid list -> unit

(** A call listing nothing: its set is the function's {!Func.t.clobbers}. *)
val call_instr :
  t -> dst:Ids.reg option -> Instr.call_kind -> Instr.operand list -> unit

val print : t -> Instr.operand -> unit

(** {2 Terminators} — each closes the current block. *)

val jmp : t -> Block.t -> unit

val br : t -> Instr.operand -> Block.t -> Block.t -> unit

val ret : t -> Instr.operand option -> unit

(** Set the entry block and recompute predecessors. *)
val finish : t -> entry:Block.t -> Func.t
