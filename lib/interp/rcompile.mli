(** Register-allocated backend compiler: clones each function, splits
    critical edges, assigns the SSA clone's virtual registers physical
    frame slots in dominator order ([Rp_regalloc.Slots]), lowers out of
    SSA with each parallel copy sequentialised over those slots
    ([Rp_ssa.Destruct.lower ~loc]), and emits a slot-addressed bytecode
    for {!Rengine}.  The source program is never mutated.

    Like [Decode], the image is built once and {!refresh} re-compiles
    the (promotion-mutated) bodies into the same buffers. *)

open Rp_ir

(** {2 Opcodes} ([Rengine] asserts the literal values) *)

val op_bin_rr : int
val op_bin_ri : int
val op_bin_ir : int
val op_bin_ii : int
val op_un_r : int
val op_un_i : int
val op_copy_r : int
val op_copy_i : int
val op_load : int
val op_store_r : int
val op_store_i : int
val op_addr_r : int
val op_addr_i : int
val op_pload_r : int
val op_pload_i : int
val op_pstore : int
val op_call : int
val op_xcall : int
val op_call_unknown : int
val op_trap_rphi : int
val op_print_r : int
val op_print_i : int
val op_jmp : int
val op_br : int
val op_ret_r : int
val op_ret_i : int
val op_ret_void : int

(** Superinstructions, emitted only under [compile ~fuse:true].  Values
    29, 30, 36 and 37 are unused. *)

val op_cbr_rr : int
val op_cbr_ri : int
val op_bin2 : int
val op_load2 : int
val op_bin_store : int
val op_mm_bin : int
val op_mm_bin_store : int
val op_mm_bin2 : int
val op_mm_bin2_store : int
val op_abin_pstore : int
val op_copy_n : int
val op_bst_bin2 : int

(** [op_len code base] is the length in words of the instruction that
    starts at [code.(base)].
    @raise Invalid_argument on a word that is no opcode. *)
val op_len : int array -> int -> int

type rfunc = {
  rfid : int;
  rname : string;
  mutable rparams : int array;
  rlocals : int array;
  mutable rnslots : int;
  mutable frame_words : int;
  mutable rcode : int array;
  mutable rcode_len : int;
  mutable rticks : int array;
  mutable rstrs : string array;
  mutable rnstrs : int;
  mutable entry_off : int;
  mutable entry_block : int;
  mutable entry_cost : int;
  mutable rnblocks : int;
  mutable block_base : int;
  mutable edge_base : int;
  mutable rnedges : int;
  mutable edge_src : int array;
  mutable edge_dst : int array;
  mutable s_instrs : int array;
  mutable s_loads : int array;
  mutable s_stores : int array;
  mutable s_aloads : int array;
  mutable s_astores : int array;
}

type t = {
  rprog : Func.prog;
  fuse : bool;
  rnvars : int;
  rarray_len : int array;
  rmem_init : int array;
  rfnames : string array;
  rfids : (string, int) Hashtbl.t;
  rfuncs : rfunc array;
  rmain : int;
  mutable rtotal_blocks : int;
  mutable rtotal_edges : int;
  mutable rfused_ops : int;
  mutable rops_eliminated : int;
}

(** Compile the whole program.  [budget] is ignored: slot assignment
    needs no register budget, and the argument stays only for callers
    that still pass one ([perfbench/replay.ml]).  [fuse] (default
    false) enables the peephole superinstruction layer:
    compare-and-branch fusion, binop pair and statement fusion,
    single-use copy folding, literal constant folding, copy runs and
    reverse-postorder block layout — observationally invisible, and
    re-applied by {!refresh}. *)
val compile : ?budget:int -> ?fuse:bool -> Func.prog -> t

(** Re-compile after the IR was transformed, reusing the buffers. *)
val refresh : t -> unit
