(** IR instructions.

    Virtual registers and singleton memory resources are both
    first-class SSA names: singleton loads/stores move scalar values
    between the two name spaces, aliased references (calls, pointer
    loads/stores) carry sets of singleton resources they may define
    ([mdefs]) or use ([muses]) — the paper's aggregate resources.
    Phi instructions exist for both name spaces.

    An instruction is a mutable cell [{ iid; op }] so transformations
    can rewrite it in place (e.g. replace a load by a copy) while sets
    keyed on the instruction id stay valid. *)

type reg = Ids.reg

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr

type unop = Neg | Lnot

type operand = Reg of reg | Imm of int

type call_kind =
  | User of string  (** user-defined function in the same program *)
  | Extern of string  (** unknown external function *)

type opcode =
  | Bin of { dst : reg; op : binop; l : operand; r : operand }
  | Un of { dst : reg; op : unop; src : operand }
  | Copy of { dst : reg; src : operand }
  | Load of { dst : reg; src : Resource.t }
      (** singleton load: dst = ld [src] *)
  | Store of { dst : Resource.t; src : operand }
      (** singleton store: st [dst] = src *)
  | Addr_of of { dst : reg; var : Ids.vid; off : operand }
      (** dst = &var + off (in abstract element units) *)
  | Ptr_load of { dst : reg; addr : operand; muses : Resource.t list }
      (** aliased load through a pointer *)
  | Ptr_store of {
      addr : operand;
      src : operand;
      mdefs : Resource.t list;  (** aliased store *)
      muses : Resource.t list;
          (** weak update: the old versions that may survive *)
    }
  | Call of {
      dst : reg option;
      callee : call_kind;
      args : operand list;
      mdefs : Resource.t list;  (** aliased-store side of the call *)
      muses : Resource.t list;  (** aliased-load side of the call *)
    }
      (** both sides are [Func.clobbers]: the lists hold its renamed
          members, by variable; the others are implicit, at version 0 *)
  | Dummy_aload of { muses : Resource.t list }
      (** dummy aliased load left in interval preheaders by the
          promoter to summarise an inner interval for its parent (paper
          section 4.4); removed by cleanup *)
  | Exit_use of { muses : Resource.t list }
      (** virtual aliased load of every program-lifetime variable at
          each return ([Func.exit_vars], listed like a call's set):
          callers may observe globals; a no-op at execution time *)
  | Rphi of { dst : reg; srcs : (Ids.bid * reg) list }
  | Mphi of { dst : Resource.t; srcs : (Ids.bid * Resource.t) list }
  | Print of { src : operand }  (** observable output; no memory effect *)

type t = {
  iid : Ids.iid;
  mutable op : opcode;
  mutable at : int;
      (** the tag (block id) of the {!Iseq} sequence holding the
          instruction, or [-1] while it is in none; kept by {!Iseq} *)
}

(** A fresh instruction, in no sequence. *)
val make : Ids.iid -> opcode -> t

val is_phi : t -> bool

val is_mphi : t -> bool

val is_rphi : t -> bool

val is_dummy : t -> bool

(** {2 Register defs and uses} *)

val reg_def : opcode -> reg option

val regs_of_operand : operand -> reg list

(** Register uses, excluding phi sources (those are uses at the end of
    the corresponding predecessor). *)
val reg_uses : opcode -> reg list

(** Visit the registers {!reg_uses} lists, in the same order, without
    building the list. *)
val iter_reg_uses : (reg -> unit) -> opcode -> unit

val rphi_srcs : opcode -> (Ids.bid * reg) list

(** {2 Memory resource defs and uses} *)

(** The singleton resource defined, when the instruction is a strong
    definition (store or memory phi). *)
val mem_def : opcode -> Resource.t option

(** All resources defined, including the may-defs of aliased stores. *)
val mem_defs : opcode -> Resource.t list

(** Resources used, excluding memory-phi sources. *)
val mem_uses : opcode -> Resource.t list

val mphi_srcs : opcode -> (Ids.bid * Resource.t) list

(** Visit every memory operand: the definitions, then the uses, then
    the memory-phi sources. *)
val iter_mem : (Resource.t -> unit) -> opcode -> unit

(** Aliased load in the paper's sense (pointer load, call, dummy,
    exit use). *)
val is_aliased_load : opcode -> bool

(** Aliased store in the paper's sense (pointer store, call). *)
val is_aliased_store : opcode -> bool

(** {2 Rewriting} *)

val map_operand : (reg -> reg) -> operand -> operand

(** [List.map] that returns the list itself (or shares its tail) where
    the function returns the elements unchanged (physically equal), so
    a rewrite that changes nothing allocates nothing. Elements are
    visited in order. *)
val map_shared : ('a -> 'a) -> 'a list -> 'a list

(** Rewrite register uses (not defs, not phi sources). *)
val map_reg_uses : (reg -> reg) -> opcode -> opcode

(** Rewrite the defined register. *)
val map_reg_def : (reg -> reg) -> opcode -> opcode

(** Rewrite memory-resource uses (not defs, not memory-phi sources). *)
val map_mem_uses : (Resource.t -> Resource.t) -> opcode -> opcode

(** Rewrite memory-resource defs (store target, mphi target,
    may-defs). *)
val map_mem_defs : (Resource.t -> Resource.t) -> opcode -> opcode

(** @raise Invalid_argument when the instruction is not a register phi. *)
val set_rphi_srcs : t -> (Ids.bid * reg) list -> unit

(** @raise Invalid_argument when the instruction is not a memory phi. *)
val set_mphi_srcs : t -> (Ids.bid * Resource.t) list -> unit

val binop_name : binop -> string

val unop_name : unop -> string
