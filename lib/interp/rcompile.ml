(* Register-allocated backend compiler.

   Compiles each [Func.t] to a bytecode over *physical slots*: the
   function is cloned, critical edges are split, the virtual registers
   of the SSA clone are assigned frame slots in dominator order
   ([Rp_regalloc.Slots], at most MAXLIVE) and register phis are lowered
   to copies at the end of each predecessor, every parallel copy
   sequentialised over those slots ([Rp_ssa.Destruct.lower ~loc]; a
   cycle's temporary takes one scratch slot).  The clone keeps its
   virtual registers: the emitter maps each to its slot, and a move
   whose source already sits in its target's slot emits nothing.  The
   execution engine ([Rengine]) then
   runs one untagged [int array] frame per activation, carved from a
   contiguous stack, instead of the flat engine's per-value parallel
   tag/payload/offset arrays.

   Value encoding
   --------------
   Every storage location is two adjacent words: a value word and a
   kind word.  Kind [-1] is an integer (value word holds it); kind
   [>= 0] is a pointer with the kind word holding the base vid and the
   value word the element offset.  The integer fast path for a binop is
   one test, [(kl land kr) < 0].  Operand slots are emitted
   pre-doubled, so the engine indexes [stk.(fp + o)] directly.  There
   is no "read before written" tag: the compiled engine only runs
   frontend-produced programs, whose SSA form guarantees definitions
   dominate uses.

   Fuel and counter parity with the oracle
   ---------------------------------------
   The tree-walker charges one fuel per executed instruction plus one
   per block, and raises [Out_of_fuel] at a precise point.  The
   compiled code charges fuel in *segments*: every control transfer
   carries the target block's entry-segment cost (its instruction
   ticks up to and including the first call, plus the block tick when
   call-free), and each call instruction carries an [after_cost]
   operand for the ticks between its return and the next segment
   boundary.  A deduction that would reach zero does not raise: it
   sets a sticky slow flag *without deducting*, and from then on the
   engine charges per instruction from a ticks side-table
   ([rticks.(base)] = the instruction's own tick plus the ticks of any
   omitted instructions since the previous emitted one), reproducing
   the oracle's exact exhaustion point.  Phi-lowering copies are an
   artefact of leaving SSA and carry zero ticks.

   Dynamic counters are reconstructed, not maintained: on a successful
   run every entered block ran to completion, so executed
   instructions / singleton loads / stores / aliased accesses are
   [sum over blocks of bcount(b) * static-per-block count].  Only
   block, edge and call counters (plus the extern counter) are bumped
   at run time, exactly as in the flat engine.

   Synthetic blocks
   ----------------
   Splitting a critical edge on the clone adds a block the oracle does
   not have.  Such blocks (bid >= the original block count) cost zero
   fuel and own no counters: the jump *into* one carries the dense ids
   of the logical edge (src, dst) it stands for, and its own jump
   carries per-function sink counter slots (each function's block and
   edge counter spans have one extra always-bumped slot) together with
   the real entry cost of the destination. *)

open Rp_ir
module Slots = Rp_regalloc.Slots
module Destruct = Rp_ssa.Destruct

(* Opcodes ([Rengine] matches on the literal values; an assertion
   there keeps the files in sync). *)
let op_bin_rr = 0 (* bop dst l r *)
let op_bin_ri = 1 (* bop dst l imm *)
let op_bin_ir = 2 (* bop dst imm r *)
let op_bin_ii = 3 (* bop dst imm imm *)
let op_un_r = 4 (* uop dst s *)
let op_un_i = 5 (* uop dst imm *)
let op_copy_r = 6 (* dst s *)
let op_copy_i = 7 (* dst imm *)
let op_load = 8 (* dst v2 *)
let op_store_r = 9 (* v2 s *)
let op_store_i = 10 (* v2 imm *)
let op_addr_r = 11 (* dst vid off *)
let op_addr_i = 12 (* dst vid imm *)
let op_pload_r = 13 (* dst a *)
let op_pload_i = 14 (* dst imm *)
let op_pstore = 15 (* ak a sk s *)
let op_call = 16 (* dst|-1 fid nargs after_cost (k v)... *)
let op_xcall = 17 (* dst|-1 *)
let op_call_unknown = 18 (* strid *)
let op_trap_rphi = 19 (* - *)
let op_print_r = 20 (* s *)
let op_print_i = 21 (* imm *)
let op_jmp = 22 (* off blk edge cost *)
let op_br = 23 (* cond toff tblk tedge tcost foff fblk fedge fcost *)
let op_ret_r = 24 (* s *)
let op_ret_i = 25 (* imm *)
let op_ret_void = 26 (* - *)

(* Superinstructions, emitted only by the fused compiler
   ([compile ~fuse:true]).  A fused opcode stands for two source
   instructions; its slow-path fuel is charged in two stages:
   [rticks.(base)] for the first half in the ordinary dispatch
   prologue, [rticks.(base + 1)] for the second half mid-instruction,
   after the first half executed and before the second can trap —
   preserving the oracle's exact trap and [Out_of_fuel] points.
   Values 29, 30, 36 and 37 are unused: the gaps keep every other
   opcode at its value, so images compare word for word across
   versions. *)
let op_cbr_rr = 27 (* bop l r dst|-1 toff tblk tedge tcost foff fblk fedge fcost *)
let op_cbr_ri = 28 (* bop l imm dst|-1 <same 8 transfer words> *)
let op_bin2 = 31 (* shape bop1 a1 b1 tslot|-1 bop2 dst c2 *)
let op_load2 = 32 (* d1 v2a d2 v2b : two adjacent scalar loads *)
let op_bin_store = 33 (* shape bop a b dst|-1 v2 : binop into a store *)

(* Whole-statement memory superinstructions: [x = a ⊕ b] over
   address-taken scalars is load; load; bin(; store) — four oracle
   instructions whose intermediates the allocator cannot promote.  The
   fused forms keep both loaded values and the result in engine
   locals, never touching the frame slots; their slow-path fuel is
   staged through [rticks.(base)] … [rticks.(base + 3)], one charge
   per source instruction at the oracle's exact point. *)
let op_mm_bin = 34 (* shape bop v2a v2b dst : dst <- mem[a] op mem[b] *)
let op_mm_bin_store = 35 (* shape bop v2a v2b v2d : mem[d] <- mem[a] op mem[b] *)

(* The accumulate chain [x = (a ⊕ b) ⊕ z(; store x)] — the dominant
   stencil shape — extends [op_mm_bin] with a second binop whose
   other operand is a slot or an immediate; the intermediate never
   touches its slot.  The first five words are the [op_mm_bin]
   image; [sh2] bit 1 = the chained value is the right operand of
   the second binop, bit 2 = [z] is an immediate.  The second
   binop's fuel stage follows the first's, and the store form's
   follows that. *)
let op_mm_bin2 = 38 (* shape bop x y sh2 bop2 z dst *)
let op_mm_bin2_store = 39 (* shape bop x y sh2 bop2 z v2d *)

(* The array store [a[i] = v] in full: [addr; bin; pstore] —
   the sunk constant address flows into the pointer arithmetic, whose
   result flows into the store, and neither temporary touches its slot.
   The address is an immediate (value [off], kind [vid]); [sh] bit 1
   = the address is the binop's right operand, bit 2 = [y] is an
   immediate.  Three fuel stages: the addr's in the prologue, the
   binop's and the pstore's at [rticks.(base + 1)]/[(base + 2)]. *)
let op_abin_pstore = 40 (* shape bop vid off y sk s *)

(* Phi-lowering leaves bursts of 8–13 adjacent copies at block heads
   (loop-carried scalars re-seeded on every back edge).  A copy
   cannot trap and its slot write is unobservable mid-run, so a whole
   run executes under one dispatch with every tick — free phi moves
   and ticking copies alike — charged in the prologue.  Each entry is
   a (flag, dst, src) triple; flag 1 = immediate source. *)
let op_copy_n = 41 (* n (fl d s)×n *)

(* Post-promotion blocks are dominated by statement chains of the form
   [bin; store; bin; bin] — a scalar update into a promoted cell
   followed by the next expression pair.  When an [op_bin2] forms
   right behind an [op_bin_store], the two superinstructions merge
   into one dispatch: the store payload keeps its word offsets, the
   pair payload follows at +7.  Stage ticks sit at +1 (store), +2
   (first bin of the pair) and +3 (second), so every oracle abort
   point is preserved. *)
let op_bst_bin2 = 42 (* sh1 bop1 a b dslot|-1 v sh2 bop1' a1 b1 tslot|-1 bop2 dst c2 *)

type rfunc = {
  rfid : int;
  rname : string;
  mutable rparams : int array;
      (** pre-doubled slot offsets in arg order; -1 = dead parameter
          (never referenced; its argument is dropped) *)
  rlocals : int array;  (** address-taken local vids, save order *)
  mutable rnslots : int;
      (** slots incl. the shared discard slot (last) and, in a function
          whose phi moves form a cycle, the scratch slot before it *)
  mutable frame_words : int;  (** 2*rnslots + 2*|rlocals| *)
  mutable rcode : int array;
  mutable rcode_len : int;
  mutable rticks : int array;
      (** slow-path fuel per instruction base offset *)
  mutable rstrs : string array;  (** unknown-callee names *)
  mutable rnstrs : int;
  mutable entry_off : int;
  mutable entry_block : int;  (** global block-counter id of the entry *)
  mutable entry_cost : int;  (** entry block's first-segment cost *)
  mutable rnblocks : int;  (** original (pre-split) block count *)
  mutable block_base : int;
  mutable edge_base : int;
  mutable rnedges : int;
  mutable edge_src : int array;  (** logical edge id -> source bid *)
  mutable edge_dst : int array;
  (* static per-original-block execution counts, for reconstruction *)
  mutable s_instrs : int array;
  mutable s_loads : int array;
  mutable s_stores : int array;
  mutable s_aloads : int array;
  mutable s_astores : int array;
}

type t = {
  rprog : Func.prog;
  fuse : bool;  (** peephole superinstruction fusion enabled *)
  rnvars : int;
  rarray_len : int array;  (** vid -> length; -1 for scalars *)
  rmem_init : int array;  (** interleaved (value, kind) per vid *)
  rfnames : string array;
  rfids : (string, int) Hashtbl.t;
  rfuncs : rfunc array;
  rmain : int;  (** -1 when the program has no [main] *)
  mutable rtotal_blocks : int;
  mutable rtotal_edges : int;
  mutable rfused_ops : int;  (** superinstructions emitted (2 ops each) *)
  mutable rops_eliminated : int;  (** copies folded away by the peephole *)
}

(* ------------------------------------------------------------------ *)

let grow_int (a : int array) (len : int) (need : int) =
  if need <= Array.length a then a
  else begin
    let a' = Array.make (max need (2 * max 1 (Array.length a))) 0 in
    Array.blit a 0 a' 0 len;
    a'
  end

let emit (rf : rfunc) (x : int) =
  rf.rcode <- grow_int rf.rcode rf.rcode_len (rf.rcode_len + 1);
  rf.rticks <- grow_int rf.rticks rf.rcode_len (rf.rcode_len + 1);
  rf.rcode.(rf.rcode_len) <- x;
  rf.rcode_len <- rf.rcode_len + 1

let add_str (rf : rfunc) (s : string) : int =
  if Array.length rf.rstrs <= rf.rnstrs then begin
    let a = Array.make (max 4 (2 * rf.rnstrs)) "" in
    Array.blit rf.rstrs 0 a 0 rf.rnstrs;
    rf.rstrs <- a
  end;
  rf.rstrs.(rf.rnstrs) <- s;
  rf.rnstrs <- rf.rnstrs + 1;
  rf.rnstrs - 1

let binop_code : Instr.binop -> int = function
  | Instr.Add -> 0
  | Instr.Sub -> 1
  | Instr.Mul -> 2
  | Instr.Div -> 3
  | Instr.Rem -> 4
  | Instr.Lt -> 5
  | Instr.Le -> 6
  | Instr.Gt -> 7
  | Instr.Ge -> 8
  | Instr.Eq -> 9
  | Instr.Ne -> 10
  | Instr.Band -> 11
  | Instr.Bor -> 12
  | Instr.Bxor -> 13
  | Instr.Shl -> 14
  | Instr.Shr -> 15

let unop_code : Instr.unop -> int = function Instr.Neg -> 0 | Instr.Lnot -> 1

(* Fold a literal-literal binop at compile time, mirroring the
   engine's integer fast path exactly.  Callers must rule out the
   trapping [Div]/[Rem] by zero first. *)
let binop_eval (op : Instr.binop) (a : int) (b : int) : int =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> a / b
  | Instr.Rem -> a mod b
  | Instr.Lt -> if a < b then 1 else 0
  | Instr.Le -> if a <= b then 1 else 0
  | Instr.Gt -> if a > b then 1 else 0
  | Instr.Ge -> if a >= b then 1 else 0
  | Instr.Eq -> if a = b then 1 else 0
  | Instr.Ne -> if a <> b then 1 else 0
  | Instr.Band -> a land b
  | Instr.Bor -> a lor b
  | Instr.Bxor -> a lxor b
  | Instr.Shl -> a lsl (b land 63)
  | Instr.Shr -> a asr (b land 63)

(* ------------------------------------------------------------------ *)
(* Per-function compilation *)

(* Emission state threaded through one function. *)
type emitter = {
  rf : rfunc;
  fids : (string, int) Hashtbl.t;
  slot_of : int array;
      (** vreg -> slot (not doubled), every register of the lowered
          clone; -1 = never read or absent *)
  discard : int;  (** pre-doubled shared write-only slot *)
  orig_nblocks : int;
  block_cost : int array;  (** clone bid -> entry-segment cost *)
  block_off : int array;  (** clone bid -> code offset *)
  mutable pending : int;  (** omitted ticks since the last emitted op *)
  mutable seg : int;  (** ticks in the open fuel segment *)
  mutable seg_site : int;
      (** code index of the open segment's [after_cost] slot;
          -1 = the block's entry segment *)
  mutable cur_bid : int;
  edge_ids : (int, int) Hashtbl.t;
      (** logical (src, dst) pair -> dense edge id: every transfer over
          the same logical edge shares one interned counter slot *)
  (* peephole state, active only under [fuse] *)
  fuse : bool;
  use_cnt : int array;  (** vreg -> number of (live) operand uses *)
  mutable pend : Instr.t option;
      (** a single-use copy held back one instruction, waiting to fold
          into its consumer; flushed unchanged if the consumer is not
          the immediately next instruction *)
  mutable last_bin : int;
      (** code base of the last emitted plain binop, a fusion
          candidate iff [last_bin + 5 = rcode_len] (nothing emitted
          since); -1 = none *)
  mutable last_bin_dst : int;  (** its IR destination register *)
  mutable last_load : int;
      (** code base of the last emitted plain load, a [op_load2]
          candidate iff [last_load + 3 = rcode_len]; -1 = none *)
  mutable last_load_dst : int;  (** its IR destination register *)
  mutable last_load2 : int;
      (** code base of the last emitted [op_load2], an [op_mm_bin]
          candidate iff [last_load2 + 5 = rcode_len]; -1 = none *)
  mutable last_l2a : int;  (** IR dst of its first load *)
  mutable last_l2b : int;  (** IR dst of its second load *)
  mutable last_mm : int;
      (** code base of the last emitted [op_mm_bin], an
          [op_mm_bin_store] candidate iff [last_mm + 6 = rcode_len] *)
  mutable last_mm_dst : int;  (** its IR destination register *)
  mutable last_mm2 : int;
      (** code base of the last emitted [op_mm_bin2], an
          [op_mm_bin2_store] candidate iff [last_mm2 + 9 = rcode_len] *)
  mutable last_mm2_dst : int;  (** its IR destination register *)
  mutable haddr : int;
      (** a held (sunk) constant address: the dst vreg of a
          single-use [addr_i] whose emission is delayed to its sole
          consumer — absorbed into the [hpb] hold below when that is
          pointer arithmetic, flushed as a plain [op_addr_i]
          otherwise.  The computation is pure, so only its fuel tick
          is position sensitive, and that rides [pending].  -1 = none *)
  mutable haddr_vid : int;
  mutable haddr_off : int;
  mutable hpb : int;
      (** a held pointer binop over a sunk address, the [addr; bin]
          prefix of a candidate [op_abin_pstore]: -1 = none.  Held at
          most one instruction; flushed as a plain [op_addr_i] plus a
          plain binop if the next instruction is not the consuming
          pointer store.  Only the two temporaries' fuel ticks are
          position sensitive: the addr's rides [pending], the bin's
          is re-staged at flush or fuse time. *)
  mutable hpb_dst : int;  (** the binop's IR destination register *)
  mutable hpb_vid : int;
  mutable hpb_off : int;
  mutable hpb_bop : int;
  mutable hpb_sh : int;
  mutable hpb_y : int;
  mutable hpb_dslot : int;  (** [slot hpb_dst], for the flush path *)
  mutable hpb_aslot : int;  (** the sunk address's slot, ditto *)
  mutable last_bst : int;
      (** code base of the last emitted [op_bin_store], a merge
          candidate iff [last_bst + 7 = rcode_len]; -1 = none *)
  mutable last_cpy : int;
      (** code base of the last emitted [op_copy_n], extendable iff
          [last_cpy + 2 + 3*n = rcode_len]; -1 = none *)
  mutable last_c1 : int;
      (** code base of the last emitted single copy, the seed of a
          run iff [last_c1 + 3 = rcode_len]; -1 = none *)
  mutable n_fused : int;
  mutable n_elim : int;
}

let slot (e : emitter) (r : Ids.reg) : int =
  let s = e.slot_of.(r) in
  if s >= 0 then 2 * s else e.discard

(* Start an emitted instruction: record its slow-path ticks.  [tk]
   already includes any pending omitted ticks. *)
let start (e : emitter) (tk : int) =
  let base = e.rf.rcode_len in
  e.rf.rticks <- grow_int e.rf.rticks base (base + 1);
  e.rf.rticks.(base) <- tk

(* An ordinary (ticking) instruction. *)
let start_tick (e : emitter) =
  start e (e.pending + 1);
  e.pending <- 0;
  e.seg <- e.seg + 1

(* An omitted ticking instruction: charged with the next emitted op. *)
let omit_tick (e : emitter) =
  e.pending <- e.pending + 1;
  e.seg <- e.seg + 1

(* Materialise a held constant address as a plain [op_addr_i]: its
   tick was omitted at the hold point, so the op carries only the
   accumulated pending ticks (possibly zero).  Delaying the slot
   write is invisible — the slot's only reader is the consumer this
   flush precedes. *)
let flush_haddr (e : emitter) =
  if e.haddr >= 0 then begin
    let rf = e.rf in
    start e e.pending;
    e.pending <- 0;
    emit rf op_addr_i;
    emit rf (slot e e.haddr);
    emit rf e.haddr_vid;
    emit rf e.haddr_off;
    e.haddr <- -1
  end

(* The pointer store did not follow: re-emit the held [addr; bin]
   prefix plain.  The addr carries every omitted tick so far; the
   bin, whose segment slot was counted when it was held, carries its
   own tick at its own position, and becomes an ordinary fusion
   candidate again. *)
let flush_hpb (e : emitter) =
  if e.hpb >= 0 then begin
    let rf = e.rf in
    start e e.pending;
    e.pending <- 0;
    emit rf op_addr_i;
    emit rf e.hpb_aslot;
    emit rf e.hpb_vid;
    emit rf e.hpb_off;
    let bbase = rf.rcode_len in
    start e 1;
    emit rf
      (if e.hpb_sh land 2 <> 0 then
         if e.hpb_sh land 1 <> 0 then op_bin_ir else op_bin_ri
       else op_bin_rr);
    emit rf e.hpb_bop;
    emit rf e.hpb_dslot;
    if e.hpb_sh land 1 <> 0 then begin
      emit rf e.hpb_y;
      emit rf e.hpb_aslot
    end
    else begin
      emit rf e.hpb_aslot;
      emit rf e.hpb_y
    end;
    e.last_bin <- bbase;
    e.last_bin_dst <- e.hpb_dst;
    e.hpb <- -1
  end

(* Close the open fuel segment: the entry segment lands in
   [block_cost], later ones patch their call's [after_cost] slot. *)
let close_seg (e : emitter) =
  if e.seg_site < 0 then e.block_cost.(e.cur_bid) <- e.seg
  else e.rf.rcode.(e.seg_site) <- e.seg;
  e.seg <- 0

(* A control transfer [cur -> t] in the clone.  Emits
   [off; blk; edge; cost]; [off] and [cost] hold the clone target bid
   until the patch pass.  Jumps into a synthetic block stand for the
   logical edge to its unique successor; jumps out of one bump the
   per-function sink counters.  Logical edges are interned: the sink
   occupies slot 0 of the function's edge-counter span and real edge
   [k] lives at [edge_base + 1 + k], so every transfer over the same
   (src, dst) pair — including the two sides of a branch to one
   target — shares a single dense counter, independent of block
   emission order. *)
let emit_edge (e : emitter) (g : Func.t) ~(t : Ids.bid) =
  let rf = e.rf in
  if e.cur_bid >= e.orig_nblocks then begin
    (* synthetic source: counters were bumped on the way in *)
    emit rf t;
    emit rf (rf.block_base + rf.rnblocks);
    emit rf rf.edge_base;
    emit rf t
  end
  else begin
    let d =
      if t < e.orig_nblocks then t
      else
        match (Func.block g t).Block.term with
        | Block.Jmp d -> d
        | _ -> assert false
    in
    let key = (e.cur_bid * e.orig_nblocks) + d in
    let k =
      match Hashtbl.find_opt e.edge_ids key with
      | Some k -> k
      | None ->
          let k = rf.rnedges in
          rf.edge_src <- grow_int rf.edge_src k (k + 1);
          rf.edge_dst <- grow_int rf.edge_dst k (k + 1);
          rf.edge_src.(k) <- e.cur_bid;
          rf.edge_dst.(k) <- d;
          rf.rnedges <- k + 1;
          Hashtbl.add e.edge_ids key k;
          k
    in
    emit rf t;
    emit rf (rf.block_base + d);
    emit rf (rf.edge_base + 1 + k);
    emit rf t
  end

let compile_instr (e : emitter) (moves : Ids.IntSet.t) (i : Instr.t) =
  let rf = e.rf in
  match i.Instr.op with
  | Instr.Copy { dst; src } when Ids.IntSet.mem i.Instr.iid moves -> (
      (* phi-lowering move: free; vanishes entirely when coalesced.
         An immediate source only appears when the peephole folded a
         literal copy into the move. *)
      match src with
      | Instr.Reg s ->
          let d = slot e dst and sl = slot e s in
          if d <> sl then begin
            start e e.pending;
            e.pending <- 0;
            emit rf op_copy_r;
            emit rf d;
            emit rf sl
          end
      | Instr.Imm n ->
          start e e.pending;
          e.pending <- 0;
          emit rf op_copy_i;
          emit rf (slot e dst);
          emit rf n)
  | Instr.Copy { dst; src = Instr.Reg s } when slot e dst = slot e s ->
      omit_tick e
  | Instr.Copy { dst; src } -> (
      start_tick e;
      match src with
      | Instr.Reg s ->
          emit rf op_copy_r;
          emit rf (slot e dst);
          emit rf (slot e s)
      | Instr.Imm n ->
          emit rf op_copy_i;
          emit rf (slot e dst);
          emit rf n)
  | Instr.Bin { dst; op; l; r } ->
      start_tick e;
      let bop = binop_code op in
      (match (l, r) with
      | Instr.Reg a, Instr.Reg b ->
          emit rf op_bin_rr;
          emit rf bop;
          emit rf (slot e dst);
          emit rf (slot e a);
          emit rf (slot e b)
      | Instr.Reg a, Instr.Imm n ->
          emit rf op_bin_ri;
          emit rf bop;
          emit rf (slot e dst);
          emit rf (slot e a);
          emit rf n
      | Instr.Imm n, Instr.Reg b ->
          emit rf op_bin_ir;
          emit rf bop;
          emit rf (slot e dst);
          emit rf n;
          emit rf (slot e b)
      | Instr.Imm n, Instr.Imm m ->
          emit rf op_bin_ii;
          emit rf bop;
          emit rf (slot e dst);
          emit rf n;
          emit rf m)
  | Instr.Un { dst; op; src } -> (
      start_tick e;
      let u = unop_code op in
      match src with
      | Instr.Reg a ->
          emit rf op_un_r;
          emit rf u;
          emit rf (slot e dst);
          emit rf (slot e a)
      | Instr.Imm n ->
          emit rf op_un_i;
          emit rf u;
          emit rf (slot e dst);
          emit rf n)
  | Instr.Load { dst; src } ->
      start_tick e;
      emit rf op_load;
      emit rf (slot e dst);
      emit rf (2 * src.Resource.base)
  | Instr.Store { dst; src } -> (
      start_tick e;
      match src with
      | Instr.Reg a ->
          emit rf op_store_r;
          emit rf (2 * dst.Resource.base);
          emit rf (slot e a)
      | Instr.Imm n ->
          emit rf op_store_i;
          emit rf (2 * dst.Resource.base);
          emit rf n)
  | Instr.Addr_of { dst; var; off } -> (
      start_tick e;
      match off with
      | Instr.Reg a ->
          emit rf op_addr_r;
          emit rf (slot e dst);
          emit rf var;
          emit rf (slot e a)
      | Instr.Imm n ->
          emit rf op_addr_i;
          emit rf (slot e dst);
          emit rf var;
          emit rf n)
  | Instr.Ptr_load { dst; addr; muses = _ } -> (
      start_tick e;
      match addr with
      | Instr.Reg a ->
          emit rf op_pload_r;
          emit rf (slot e dst);
          emit rf (slot e a)
      | Instr.Imm n ->
          emit rf op_pload_i;
          emit rf (slot e dst);
          emit rf n)
  | Instr.Ptr_store { addr; src; mdefs = _; muses = _ } ->
      start_tick e;
      emit rf op_pstore;
      (match addr with
      | Instr.Reg a ->
          emit rf 0;
          emit rf (slot e a)
      | Instr.Imm n ->
          emit rf 1;
          emit rf n);
      (match src with
      | Instr.Reg a ->
          emit rf 0;
          emit rf (slot e a)
      | Instr.Imm n ->
          emit rf 1;
          emit rf n)
  | Instr.Call { dst; callee; args; mdefs = _; muses = _ } -> (
      start_tick e;
      let dst_slot = match dst with Some d -> slot e d | None -> -1 in
      match callee with
      | Instr.User name -> (
          match Hashtbl.find_opt e.fids name with
          | Some fid ->
              emit rf op_call;
              emit rf dst_slot;
              emit rf fid;
              emit rf (List.length args);
              (* the call's own tick closes this fuel segment; the
                 slot emitted here is patched with the next one *)
              close_seg e;
              emit rf 0;
              e.seg_site <- rf.rcode_len - 1;
              List.iter
                (fun a ->
                  match a with
                  | Instr.Reg r ->
                      emit rf 0;
                      emit rf (slot e r)
                  | Instr.Imm n ->
                      emit rf 1;
                      emit rf n)
                args
          | None ->
              (* an error only if executed; argument reads cannot
                 trap, so the arguments are dropped *)
              emit rf op_call_unknown;
              emit rf (add_str rf name))
      | Instr.Extern _ ->
          emit rf op_xcall;
          emit rf dst_slot)
  | Instr.Dummy_aload _ | Instr.Exit_use _ | Instr.Mphi _ -> omit_tick e
  | Instr.Rphi _ ->
      start_tick e;
      emit rf op_trap_rphi
  | Instr.Print { src } -> (
      start_tick e;
      match src with
      | Instr.Reg a ->
          emit rf op_print_r;
          emit rf (slot e a)
      | Instr.Imm n ->
          emit rf op_print_i;
          emit rf n)

(* ------------------------------------------------------------------ *)
(* Peephole fusion layer ([compile ~fuse:true]).

   A thin wrapper between slot assignment and emission.  It never
   changes observable behaviour: ticks of folded instructions ride the
   existing [pending] machinery (charged with the next emitted op, a
   span that contains no observable event), trapping shapes are never
   folded, and every transformation is local to one emitted-op
   window — a held copy is resolved at the very next instruction, and
   a superinstruction only forms from the immediately preceding
   emitted op, so no slot can be clobbered in between. *)

(* Does [op] read register [r]?  (Terminator uses are handled
   separately in [compile_term].) *)
let uses_reg (op : Instr.opcode) (r : Ids.reg) : bool =
  List.exists (fun u -> u = r) (Instr.reg_uses op)

(* Rewrite every operand [Reg from_] in [i] (a scratch clone
   instruction) to [to_]. *)
let subst_reg (i : Instr.t) (from_ : Ids.reg) (to_ : Instr.operand) =
  let sb (o : Instr.operand) =
    match o with Instr.Reg r when r = from_ -> to_ | _ -> o
  in
  match i.Instr.op with
  | Instr.Bin { dst; op; l; r } ->
      i.Instr.op <- Instr.Bin { dst; op; l = sb l; r = sb r }
  | Instr.Un { dst; op; src } -> i.Instr.op <- Instr.Un { dst; op; src = sb src }
  | Instr.Copy { dst; src } -> i.Instr.op <- Instr.Copy { dst; src = sb src }
  | Instr.Print { src } -> i.Instr.op <- Instr.Print { src = sb src }
  | Instr.Store { dst; src } -> i.Instr.op <- Instr.Store { dst; src = sb src }
  | Instr.Addr_of { dst; var; off } ->
      i.Instr.op <- Instr.Addr_of { dst; var; off = sb off }
  | Instr.Ptr_load { dst; addr; muses } ->
      i.Instr.op <- Instr.Ptr_load { dst; addr = sb addr; muses }
  | Instr.Ptr_store { addr; src; mdefs; muses } ->
      i.Instr.op <- Instr.Ptr_store { addr = sb addr; src = sb src; mdefs; muses }
  | Instr.Call { dst; callee; args; mdefs; muses } ->
      i.Instr.op <- Instr.Call { dst; callee; args = List.map sb args; mdefs; muses }
  | Instr.Load _ | Instr.Dummy_aload _ | Instr.Exit_use _ | Instr.Rphi _
  | Instr.Mphi _ ->
      ()

(* Fused mode: coalesce the copy just emitted at [b] (3 words) into a
   run.  Adjacent copies glue into one [op_copy_n] whose prologue
   charges the whole run's ticks at once — sound because a copy never
   traps and its slot write is unobservable mid-run, so no abort can
   tell the batched charge from the staged one.  Free phi moves (tick
   0) and ticking copies mix freely; [rticks] entries simply add. *)
let merge_copy (e : emitter) (b : int) =
  let rf = e.rf in
  let fl = if rf.rcode.(b) = op_copy_i then 1 else 0 in
  if
    e.last_cpy >= 0
    && e.last_cpy + 2 + (3 * rf.rcode.(e.last_cpy + 1)) = b
  then begin
    (* extend the open run in place *)
    rf.rcode.(b) <- fl;
    rf.rcode.(e.last_cpy + 1) <- rf.rcode.(e.last_cpy + 1) + 1;
    rf.rticks.(e.last_cpy) <- rf.rticks.(e.last_cpy) + rf.rticks.(b);
    e.n_fused <- e.n_fused + 1
  end
  else if e.last_c1 >= 0 && e.last_c1 + 3 = b then begin
    (* two adjacent copies seed a run: rewind and re-emit as a pair *)
    let p = e.last_c1 in
    let f1 = if rf.rcode.(p) = op_copy_i then 1 else 0 in
    let d1 = rf.rcode.(p + 1) and s1 = rf.rcode.(p + 2) in
    let d2 = rf.rcode.(b + 1) and s2 = rf.rcode.(b + 2) in
    let t2 = rf.rticks.(b) in
    rf.rcode_len <- p;
    emit rf op_copy_n;
    emit rf 2;
    emit rf f1;
    emit rf d1;
    emit rf s1;
    emit rf fl;
    emit rf d2;
    emit rf s2;
    rf.rticks.(p) <- rf.rticks.(p) + t2;
    e.last_cpy <- p;
    e.last_c1 <- -1;
    e.n_fused <- e.n_fused + 1
  end
  else e.last_c1 <- b

let compile_instr_fused (e : emitter) (moves : Ids.IntSet.t) (i : Instr.t) =
  let rf = e.rf in
  (* 0. a held pointer binop survives exactly one instruction: either
     this is the consuming pointer store (fused below) or the prefix
     is re-emitted plain *)
  (if e.hpb >= 0 then
     let consumed =
       match i.Instr.op with
       | Instr.Ptr_store { addr = Instr.Reg a; _ } -> a = e.hpb_dst
       | _ -> false
     in
     if not consumed then flush_hpb e);
  (* 1. resolve the held single-use copy against this instruction:
     fold it in when this is its consumer, emit it unchanged
     otherwise *)
  (match e.pend with
  | Some p ->
      let pd, psrc =
        match p.Instr.op with
        | Instr.Copy { dst; src } -> (dst, src)
        | _ -> assert false
      in
      e.pend <- None;
      if uses_reg i.Instr.op pd then begin
        subst_reg i pd psrc;
        omit_tick e;
        e.n_elim <- e.n_elim + 1
      end
      else begin
        let before = rf.rcode_len in
        compile_instr e moves p;
        if
          rf.rcode_len = before + 3
          && (rf.rcode.(before) = op_copy_r || rf.rcode.(before) = op_copy_i)
        then merge_copy e before
      end
  | None -> ());
  (* 2. constant folding and identity canonicalisation (pointer-safe
     shapes only: Add/Sub with a zero immediate never trap, a literal
     division by zero must keep trapping) *)
  (match i.Instr.op with
  | Instr.Bin { dst; op; l = Instr.Imm a; r = Instr.Imm b } -> (
      match op with
      | (Instr.Div | Instr.Rem) when b = 0 -> ()
      | _ -> i.Instr.op <- Instr.Copy { dst; src = Instr.Imm (binop_eval op a b) })
  | Instr.Bin { dst; op = Instr.Add; l; r = Instr.Imm 0 }
  | Instr.Bin { dst; op = Instr.Sub; l; r = Instr.Imm 0 } ->
      i.Instr.op <- Instr.Copy { dst; src = l }
  | _ -> ());
  (* 3. a held address must be materialised before any instruction
     that touches its register — unless that instruction is the
     pointer arithmetic the hold below absorbs it into *)
  (if e.haddr >= 0 then
     let consumed =
       match i.Instr.op with
       | Instr.Bin { dst; l; r; _ } ->
           dst <> e.haddr
           && e.use_cnt.(dst) = 1
           && (l = Instr.Reg e.haddr) <> (r = Instr.Reg e.haddr)
       | _ -> false
     in
     if
       (not consumed)
       && (uses_reg i.Instr.op e.haddr
          || Instr.reg_def i.Instr.op = Some e.haddr)
     then flush_haddr e);
  match i.Instr.op with
  | Instr.Bin { dst; op; l; r }
    when e.haddr >= 0 && dst <> e.haddr
         && e.use_cnt.(dst) = 1
         && (l = Instr.Reg e.haddr) <> (r = Instr.Reg e.haddr) ->
      (* the pointer arithmetic over a sunk address: hold the whole
         [addr; bin] prefix one more instruction, hoping a pointer
         store consumes it.  Nothing is emitted; only the bin's
         segment slot is counted here. *)
      let swapped = r = Instr.Reg e.haddr in
      let sh = ref (if swapped then 1 else 0) in
      let y =
        match if swapped then l else r with
        | Instr.Imm n ->
            sh := !sh lor 2;
            n
        | Instr.Reg o -> slot e o
      in
      e.hpb <- 1;
      e.hpb_dst <- dst;
      e.hpb_vid <- e.haddr_vid;
      e.hpb_off <- e.haddr_off;
      e.hpb_bop <- binop_code op;
      e.hpb_sh <- !sh;
      e.hpb_y <- y;
      e.hpb_dslot <- slot e dst;
      e.hpb_aslot <- slot e e.haddr;
      e.seg <- e.seg + 1;
      e.haddr <- -1
  | Instr.Copy { dst; _ }
    when (not (Ids.IntSet.mem i.Instr.iid moves)) && e.use_cnt.(dst) = 1 ->
      e.pend <- Some i
  | Instr.Bin { dst; op; l; r }
    when e.last_bin >= 0
         && e.last_bin + 5 = rf.rcode_len
         && (l = Instr.Reg e.last_bin_dst) <> (r = Instr.Reg e.last_bin_dst) ->
      (* fuse the producing binop and this consumer into [op_bin2];
         the intermediate flows through the engine's scratch and its
         slot write is skipped when this was its only use *)
      let t = e.last_bin_dst in
      let bbase = e.last_bin in
      let op1 = rf.rcode.(bbase) in
      let bop1 = rf.rcode.(bbase + 1) in
      let tslot = rf.rcode.(bbase + 2) in
      let a1 = rf.rcode.(bbase + 3) in
      let b1 = rf.rcode.(bbase + 4) in
      let tr = r = Instr.Reg t in
      let sh = ref 0 in
      if op1 = op_bin_ir then sh := !sh lor 1;
      if op1 = op_bin_ri then sh := !sh lor 2;
      if tr then sh := !sh lor 4;
      let c2 =
        match if tr then l else r with
        | Instr.Reg s -> slot e s
        | Instr.Imm n ->
            sh := !sh lor 8;
            n
      in
      rf.rcode_len <- bbase;
      emit rf op_bin2;
      emit rf !sh;
      emit rf bop1;
      emit rf a1;
      emit rf b1;
      emit rf (if e.use_cnt.(t) > 1 then tslot else -1);
      emit rf (binop_code op);
      emit rf (slot e dst);
      emit rf c2;
      rf.rticks.(bbase + 1) <- e.pending + 1;
      e.pending <- 0;
      e.seg <- e.seg + 1;
      e.n_fused <- e.n_fused + 1;
      e.last_bin <- -1;
      if e.last_bst >= 0 && e.last_bst + 7 = bbase then begin
        (* the pair formed right behind an adjacent bin_store: merge
           both superinstructions into [op_bst_bin2].  The store
           payload keeps its offsets; the pair payload shifts down
           over the absorbed opcode word, and its two stage ticks
           move to the +2/+3 positions. *)
        let p = e.last_bst in
        rf.rcode.(p) <- op_bst_bin2;
        rf.rticks.(p + 2) <- rf.rticks.(bbase);
        rf.rticks.(p + 3) <- rf.rticks.(bbase + 1);
        for k = 7 to 14 do
          rf.rcode.(p + k) <- rf.rcode.(p + k + 1)
        done;
        rf.rcode_len <- p + 15;
        e.last_bst <- -1;
        e.n_fused <- e.n_fused + 1
      end
  | Instr.Load { dst; src }
    when e.last_load >= 0 && e.last_load + 3 = rf.rcode_len ->
      (* two adjacent scalar loads share one dispatch; nothing is
         reordered or elided, so aliasing cannot be disturbed *)
      let bbase = e.last_load in
      let d1 = rf.rcode.(bbase + 1) in
      let v1 = rf.rcode.(bbase + 2) in
      rf.rcode_len <- bbase;
      emit rf op_load2;
      emit rf d1;
      emit rf v1;
      emit rf (slot e dst);
      emit rf (2 * src.Resource.base);
      rf.rticks.(bbase + 1) <- e.pending + 1;
      e.pending <- 0;
      e.seg <- e.seg + 1;
      e.n_fused <- e.n_fused + 1;
      e.last_load2 <- bbase;
      e.last_l2a <- e.last_load_dst;
      e.last_l2b <- dst;
      e.last_load <- -1;
      e.last_bin <- -1
  | Instr.Bin { dst; op; l; r }
    when e.last_load2 >= 0
         && e.last_load2 + 5 = rf.rcode_len
         && e.last_l2a <> e.last_l2b
         && e.use_cnt.(e.last_l2a) = 1
         && e.use_cnt.(e.last_l2b) = 1
         && ((l = Instr.Reg e.last_l2a && r = Instr.Reg e.last_l2b)
            || (l = Instr.Reg e.last_l2b && r = Instr.Reg e.last_l2a)) ->
      (* the whole [x <- mem[a] op mem[b]] statement: both loaded
         values stay in engine locals, their slot writes vanish
         (single use each) *)
      let bbase = e.last_load2 in
      let va = rf.rcode.(bbase + 2) in
      let vb = rf.rcode.(bbase + 4) in
      let swapped = l = Instr.Reg e.last_l2b in
      rf.rcode_len <- bbase;
      emit rf op_mm_bin;
      emit rf (if swapped then 1 else 0);
      emit rf (binop_code op);
      emit rf va;
      emit rf vb;
      emit rf (slot e dst);
      rf.rticks.(bbase + 2) <- e.pending + 1;
      e.pending <- 0;
      e.seg <- e.seg + 1;
      e.n_fused <- e.n_fused + 1;
      e.last_mm <- bbase;
      e.last_mm_dst <- dst;
      e.last_load2 <- -1;
      e.last_bin <- -1;
      e.last_load <- -1
  | Instr.Bin { dst; op; l; r }
    when e.last_load >= 0
         && e.last_load + 3 = rf.rcode_len
         && e.use_cnt.(e.last_load_dst) = 1
         && (l = Instr.Reg e.last_load_dst) <> (r = Instr.Reg e.last_load_dst)
    ->
      (* one-memory-operand statement head: [t <- mem[a] op y] with
         [y] an immediate or a register; the loaded value never
         touches its slot (single use), and the binop's tick moves up
         to [rticks.(bbase + 1)] *)
      let ld = e.last_load_dst in
      let bbase = e.last_load in
      let va = rf.rcode.(bbase + 2) in
      let swapped = r = Instr.Reg ld in
      let sh = ref (if swapped then 1 else 0) in
      let y =
        match if swapped then l else r with
        | Instr.Imm n ->
            sh := !sh lor 2;
            n
        | Instr.Reg o ->
            sh := !sh lor 4;
            slot e o
      in
      rf.rcode_len <- bbase;
      emit rf op_mm_bin;
      emit rf !sh;
      emit rf (binop_code op);
      emit rf va;
      emit rf y;
      emit rf (slot e dst);
      rf.rticks.(bbase + 1) <- e.pending + 1;
      e.pending <- 0;
      e.seg <- e.seg + 1;
      e.n_fused <- e.n_fused + 1;
      e.last_mm <- bbase;
      e.last_mm_dst <- dst;
      e.last_load <- -1;
      e.last_bin <- -1
  | Instr.Bin { dst; op; l; r }
    when e.last_mm >= 0
         && e.last_mm + 6 = rf.rcode_len
         && e.use_cnt.(e.last_mm_dst) = 1
         && (l = Instr.Reg e.last_mm_dst) <> (r = Instr.Reg e.last_mm_dst)
    ->
      (* accumulate chain [x <- (mem[a] op y) op2 z]: the whole
         statement head stays in engine locals; the intermediate's
         slot write vanishes (single use) *)
      let t = e.last_mm_dst in
      let bbase = e.last_mm in
      let sh = rf.rcode.(bbase + 1) in
      let bop = rf.rcode.(bbase + 2) in
      let x = rf.rcode.(bbase + 3) in
      let y = rf.rcode.(bbase + 4) in
      let swapped = r = Instr.Reg t in
      let sh2 = ref (if swapped then 1 else 0) in
      let z =
        match if swapped then l else r with
        | Instr.Imm n ->
            sh2 := !sh2 lor 2;
            n
        | Instr.Reg o -> slot e o
      in
      rf.rcode_len <- bbase;
      emit rf op_mm_bin2;
      emit rf sh;
      emit rf bop;
      emit rf x;
      emit rf y;
      emit rf !sh2;
      emit rf (binop_code op);
      emit rf z;
      emit rf (slot e dst);
      rf.rticks.(bbase + (if sh land 6 = 0 then 3 else 2)) <- e.pending + 1;
      e.pending <- 0;
      e.seg <- e.seg + 1;
      e.n_fused <- e.n_fused + 1;
      e.last_mm <- -1;
      e.last_mm2 <- bbase;
      e.last_mm2_dst <- dst;
      e.last_load <- -1;
      e.last_bin <- -1
  | Instr.Store { dst; src = Instr.Reg s }
    when e.last_mm2 >= 0 && e.last_mm2 + 9 = rf.rcode_len
         && s = e.last_mm2_dst && e.use_cnt.(s) = 1 ->
      (* … and the chain ends in memory: the opcode and destination
         are rewritten in place, the store tick landing one stage
         past the second binop's *)
      let bbase = e.last_mm2 in
      rf.rcode.(bbase) <- op_mm_bin2_store;
      rf.rcode.(bbase + 8) <- 2 * dst.Resource.base;
      let st = if rf.rcode.(bbase + 1) land 6 = 0 then 4 else 3 in
      rf.rticks.(bbase + st) <- e.pending + 1;
      e.pending <- 0;
      e.seg <- e.seg + 1;
      e.n_fused <- e.n_fused + 1;
      e.last_mm2 <- -1
  | Instr.Store { dst; src = Instr.Reg s }
    when e.last_mm >= 0 && e.last_mm + 6 = rf.rcode_len && s = e.last_mm_dst
         && e.use_cnt.(s) = 1 ->
      (* … and on into memory: [mem[d] <- mem[a] op mem[b]] in one
         dispatch, same length, so the opcode and destination are
         rewritten in place; the store tick lands after the binop's
         stage, whose index depends on the operand shape *)
      let bbase = e.last_mm in
      rf.rcode.(bbase) <- op_mm_bin_store;
      rf.rcode.(bbase + 5) <- 2 * dst.Resource.base;
      let st = if rf.rcode.(bbase + 1) land 6 = 0 then 3 else 2 in
      rf.rticks.(bbase + st) <- e.pending + 1;
      e.pending <- 0;
      e.seg <- e.seg + 1;
      e.n_fused <- e.n_fused + 1;
      e.last_mm <- -1
  | Instr.Store { dst; src = Instr.Reg s }
    when e.last_bin >= 0 && e.last_bin + 5 = rf.rcode_len
         && s = e.last_bin_dst ->
      (* the binop's value flows straight into memory; its slot write
         is skipped when the store was its only reader *)
      let bbase = e.last_bin in
      let op1 = rf.rcode.(bbase) in
      let bop = rf.rcode.(bbase + 1) in
      let dslot = rf.rcode.(bbase + 2) in
      let a = rf.rcode.(bbase + 3) in
      let b = rf.rcode.(bbase + 4) in
      let sh =
        (if op1 = op_bin_ir then 1 else 0)
        lor if op1 = op_bin_ri then 2 else 0
      in
      rf.rcode_len <- bbase;
      emit rf op_bin_store;
      emit rf sh;
      emit rf bop;
      emit rf a;
      emit rf b;
      emit rf (if e.use_cnt.(s) > 1 then dslot else -1);
      emit rf (2 * dst.Resource.base);
      rf.rticks.(bbase + 1) <- e.pending + 1;
      e.pending <- 0;
      e.seg <- e.seg + 1;
      e.n_fused <- e.n_fused + 1;
      e.last_bin <- -1;
      e.last_load <- -1;
      e.last_bst <- bbase
  | Instr.Addr_of { dst; var; off = Instr.Imm n } when e.use_cnt.(dst) = 1 ->
      (* sink the pure constant address to its sole consumer; only
         its tick is position sensitive, and that rides [pending] *)
      flush_haddr e;
      omit_tick e;
      e.haddr <- dst;
      e.haddr_vid <- var;
      e.haddr_off <- n
  | Instr.Ptr_store { addr = Instr.Reg a; src; _ }
    when e.hpb >= 0 && a = e.hpb_dst ->
      (* the full variable-index store chain in one dispatch: the
         address is an operand immediate, the computed pointer never
         touches a slot.  The prologue carries the ticks still
         pending (the sunk addr's, unless an earlier prologue already
         charged it); the binop's and the store's ticks are staged. *)
      let bbase = rf.rcode_len in
      start e e.pending;
      e.pending <- 0;
      e.seg <- e.seg + 1;
      emit rf op_abin_pstore;
      emit rf e.hpb_sh;
      emit rf e.hpb_bop;
      emit rf e.hpb_vid;
      emit rf e.hpb_off;
      emit rf e.hpb_y;
      (match src with
      | Instr.Reg s2 ->
          emit rf 0;
          emit rf (slot e s2)
      | Instr.Imm n ->
          emit rf 1;
          emit rf n);
      rf.rticks.(bbase + 1) <- 1;
      rf.rticks.(bbase + 2) <- 1;
      e.n_fused <- e.n_fused + 1;
      e.hpb <- -1
  | _ -> (
      let before = rf.rcode_len in
      compile_instr e moves i;
      match i.Instr.op with
      | Instr.Bin { dst; _ }
        when rf.rcode_len = before + 5 && rf.rcode.(before) < op_bin_ii ->
          e.last_bin <- before;
          e.last_bin_dst <- dst
      | Instr.Load { dst; _ } when rf.rcode_len = before + 3 ->
          e.last_load <- before;
          e.last_load_dst <- dst
      | Instr.Copy _
        when rf.rcode_len = before + 3
             && (rf.rcode.(before) = op_copy_r
                || rf.rcode.(before) = op_copy_i) ->
          merge_copy e before
      | _ -> ())

let compile_term (e : emitter) (g : Func.t) (b : Block.t) =
  let rf = e.rf in
  (* held state cannot cross the block boundary: the terminator may
     read the held registers, and the next block compiles fresh *)
  flush_hpb e;
  flush_haddr e;
  let synthetic = e.cur_bid >= e.orig_nblocks in
  (* fused mode: resolve the held copy against the terminator *)
  let term =
    match e.pend with
    | None -> b.Block.term
    | Some p -> (
        let pd, psrc =
          match p.Instr.op with
          | Instr.Copy { dst; src } -> (dst, src)
          | _ -> assert false
        in
        e.pend <- None;
        match b.Block.term with
        | Block.Br { cond = Instr.Reg c; t; f } when c = pd ->
            omit_tick e;
            e.n_elim <- e.n_elim + 1;
            Block.Br { cond = psrc; t; f }
        | Block.Ret (Some (Instr.Reg r)) when r = pd ->
            omit_tick e;
            e.n_elim <- e.n_elim + 1;
            Block.Ret (Some psrc)
        | t0 ->
            compile_instr e Ids.IntSet.empty p;
            t0)
  in
  let tk = if synthetic then 0 else e.pending + 1 in
  e.pending <- 0;
  e.seg <- e.seg + tk;
  (match term with
  | Block.Br { cond = Instr.Reg c; t; f }
    when e.last_bin >= 0
         && e.last_bin + 5 = rf.rcode_len
         && e.last_bin_dst = c
         && rf.rcode.(e.last_bin) <> op_bin_ir ->
      (* fused compare-and-branch: rewind the just-emitted binop and
         re-emit it with both transfer quadruples inline.
         [rticks.(base)] keeps the binop's tick; the terminator tick
         (plus any folded-copy ticks) charges mid-instruction from
         [rticks.(base + 1)], after the binop executed. *)
      let bbase = e.last_bin in
      let op1 = rf.rcode.(bbase) in
      let bop = rf.rcode.(bbase + 1) in
      let dslot = rf.rcode.(bbase + 2) in
      let x = rf.rcode.(bbase + 3) in
      let y = rf.rcode.(bbase + 4) in
      rf.rcode_len <- bbase;
      emit rf (if op1 = op_bin_rr then op_cbr_rr else op_cbr_ri);
      emit rf bop;
      emit rf x;
      emit rf y;
      emit rf (if e.use_cnt.(c) = 1 then -1 else dslot);
      rf.rticks.(bbase + 1) <- tk;
      emit_edge e g ~t;
      emit_edge e g ~t:f;
      e.n_fused <- e.n_fused + 1;
      e.last_bin <- -1
  | _ -> (
      start e tk;
      match term with
      | Block.Jmp t ->
          emit rf op_jmp;
          emit_edge e g ~t
      | Block.Br { cond; t; f } -> (
          match cond with
          | Instr.Imm n ->
              (* constant condition: a one-sided jump; the untaken edge
                 is never counted, matching a never-bumped flat edge
                 id *)
              emit rf op_jmp;
              emit_edge e g ~t:(if n <> 0 then t else f)
          | Instr.Reg c ->
              emit rf op_br;
              emit rf (slot e c);
              emit_edge e g ~t;
              emit_edge e g ~t:f)
      | Block.Ret op -> (
          match op with
          | Some (Instr.Reg r) ->
              emit rf op_ret_r;
              emit rf (slot e r)
          | Some (Instr.Imm n) ->
              emit rf op_ret_i;
              emit rf n
          | None -> emit rf op_ret_void)));
  close_seg e

(* Length in words of the instruction at [code.(base)]. *)
let op_len (code : int array) (base : int) : int =
  match code.(base) with
  | 0 | 1 | 2 | 3 (* bin *) -> 5
  | 4 | 5 (* un *) -> 4
  | 6 | 7 (* copy *) -> 3
  | 8 (* load *) -> 3
  | 9 | 10 (* store *) -> 3
  | 11 | 12 (* addr *) -> 4
  | 13 | 14 (* pload *) -> 3
  | 15 (* pstore *) -> 5
  | 16 (* call *) -> 5 + (2 * code.(base + 3))
  | 17 (* xcall *) -> 2
  | 18 (* call_unknown *) -> 2
  | 19 (* trap_rphi *) -> 1
  | 20 | 21 (* print *) -> 2
  | 22 (* jmp *) -> 5
  | 23 (* br *) -> 10
  | 24 | 25 (* ret *) -> 2
  | 26 (* ret_void *) -> 1
  | 27 | 28 (* cbr *) -> 13
  | 31 (* bin2 *) -> 9
  | 32 (* load2 *) -> 5
  | 33 (* bin_store *) -> 7
  | 34 | 35 (* mm_bin / mm_bin_store *) -> 6
  | 38 | 39 (* mm_bin2 / mm_bin2_store *) -> 9
  | 40 (* abin_pstore *) -> 8
  | 41 (* copy_n *) -> 2 + (3 * code.(base + 1))
  | 42 (* bst_bin2 *) -> 15
  | op -> invalid_arg (Printf.sprintf "Rcompile.op_len: opcode %d" op)

(* Walk the emitted stream and turn the clone-bid placeholders in
   transfer instructions into code offsets and entry-segment costs. *)
let patch (rf : rfunc) (block_off : int array) (block_cost : int array) =
  let code = rf.rcode in
  let pc = ref 0 in
  while !pc < rf.rcode_len do
    let base = !pc in
    (match code.(base) with
    | 22 (* jmp *) ->
        code.(base + 4) <- block_cost.(code.(base + 4));
        code.(base + 1) <- block_off.(code.(base + 1))
    | 23 (* br *) ->
        code.(base + 5) <- block_cost.(code.(base + 5));
        code.(base + 2) <- block_off.(code.(base + 2));
        code.(base + 9) <- block_cost.(code.(base + 9));
        code.(base + 6) <- block_off.(code.(base + 6))
    | 27 | 28 (* cbr *) ->
        code.(base + 8) <- block_cost.(code.(base + 8));
        code.(base + 5) <- block_off.(code.(base + 5));
        code.(base + 12) <- block_cost.(code.(base + 12));
        code.(base + 9) <- block_off.(code.(base + 9))
    | _ -> ());
    pc := base + op_len code base
  done

(* Static per-block counts from the *original* function: the clone's
   synthetic blocks and phi-lowering copies must not count. *)
let statics (rf : rfunc) (f : Func.t) =
  let n = rf.rnblocks in
  let fresh a = if Array.length a >= n then a else Array.make (max n 1) 0 in
  rf.s_instrs <- fresh rf.s_instrs;
  rf.s_loads <- fresh rf.s_loads;
  rf.s_stores <- fresh rf.s_stores;
  rf.s_aloads <- fresh rf.s_aloads;
  rf.s_astores <- fresh rf.s_astores;
  Array.fill rf.s_instrs 0 (Array.length rf.s_instrs) 0;
  Array.fill rf.s_loads 0 (Array.length rf.s_loads) 0;
  Array.fill rf.s_stores 0 (Array.length rf.s_stores) 0;
  Array.fill rf.s_aloads 0 (Array.length rf.s_aloads) 0;
  Array.fill rf.s_astores 0 (Array.length rf.s_astores) 0;
  Func.iter_blocks
    (fun b ->
      let bid = b.Block.bid in
      Iseq.iter
        (fun (i : Instr.t) ->
          rf.s_instrs.(bid) <- rf.s_instrs.(bid) + 1;
          match i.Instr.op with
          | Instr.Load _ -> rf.s_loads.(bid) <- rf.s_loads.(bid) + 1
          | Instr.Store _ -> rf.s_stores.(bid) <- rf.s_stores.(bid) + 1
          | Instr.Ptr_load _ -> rf.s_aloads.(bid) <- rf.s_aloads.(bid) + 1
          | Instr.Ptr_store _ -> rf.s_astores.(bid) <- rf.s_astores.(bid) + 1
          | Instr.Call _ ->
              rf.s_aloads.(bid) <- rf.s_aloads.(bid) + 1;
              rf.s_astores.(bid) <- rf.s_astores.(bid) + 1
          | _ -> ())
        b.Block.body)
    f

(* Count every live operand read of each vreg (body instructions plus
   terminator uses); drives the peephole's single-use folding
   decisions.  Dead blocks never execute and are never emitted, so
   their uses do not pin values. *)
let count_uses (g : Func.t) : int array =
  let uc = Array.make (max g.Func.next_reg 1) 0 in
  Func.iter_blocks
    (fun (b : Block.t) ->
      if not b.Block.dead then begin
        Iseq.iter
          (fun (i : Instr.t) ->
            List.iter
              (fun r -> uc.(r) <- uc.(r) + 1)
              (Instr.reg_uses i.Instr.op))
          b.Block.body;
        match b.Block.term with
        | Block.Br { cond = Instr.Reg c; _ } -> uc.(c) <- uc.(c) + 1
        | Block.Ret (Some (Instr.Reg r)) -> uc.(r) <- uc.(r) + 1
        | _ -> ()
      end)
    g;
  uc

(* Hot-path block schedule: reverse postorder from the entry, taken
   side first, following only the sides a constant branch can take.
   Keeps loop bodies contiguous in the code buffer; unreachable blocks
   are simply not emitted.  Correct for any emission order because
   logical edge ids are interned and the counter sinks are fixed
   slots. *)
let rpo_schedule (g : Func.t) : int list =
  let n = Func.num_blocks g in
  let seen = Array.make (max n 1) false in
  let order = ref [] in
  let rec go bid =
    if (not seen.(bid)) && not (Func.block g bid).Block.dead then begin
      seen.(bid) <- true;
      (match (Func.block g bid).Block.term with
      | Block.Jmp t -> go t
      | Block.Br { cond = Instr.Imm n; t; f } -> go (if n <> 0 then t else f)
      | Block.Br { t; f; _ } ->
          go t;
          go f
      | Block.Ret _ -> ());
      order := bid :: !order
    end
  in
  go g.Func.entry;
  !order

let compile_func (dec : t) (rf : rfunc) (f : Func.t) =
  rf.rcode_len <- 0;
  rf.rnstrs <- 0;
  rf.rnedges <- 0;
  rf.rnblocks <- Func.num_blocks f;
  let g = Func.clone f in
  Cfg.split_critical_edges g;
  let sl = Slots.assign g in
  (* registers created by the lowering are cycle temporaries: they
     share one scratch slot, past the assigned ones *)
  let nregs = Array.length sl.Slots.slot_of in
  let loc r = if r < nregs then sl.Slots.slot_of.(r) else sl.Slots.nslots in
  let moves = Destruct.lower ~loc g in
  let slot_of = Array.init g.Func.next_reg loc in
  (* one extra write-only slot absorbs defs of never-read registers *)
  let nslots =
    sl.Slots.nslots + (if g.Func.next_reg > nregs then 1 else 0) + 1
  in
  rf.rnslots <- nslots;
  rf.frame_words <- (2 * nslots) + (2 * Array.length rf.rlocals);
  let nblocks_g = Func.num_blocks g in
  let e =
    {
      rf;
      fids = dec.rfids;
      slot_of;
      discard = 2 * (nslots - 1);
      orig_nblocks = rf.rnblocks;
      block_cost = Array.make (max nblocks_g 1) 0;
      block_off = Array.make (max nblocks_g 1) (-1);
      pending = 0;
      seg = 0;
      seg_site = -1;
      cur_bid = 0;
      edge_ids = Hashtbl.create 32;
      fuse = dec.fuse;
      use_cnt = (if dec.fuse then count_uses g else [||]);
      pend = None;
      last_bin = -1;
      last_bin_dst = -1;
      last_load = -1;
      last_load_dst = -1;
      last_load2 = -1;
      last_l2a = -1;
      last_l2b = -1;
      last_mm = -1;
      last_mm_dst = -1;
      last_mm2 = -1;
      last_mm2_dst = -1;
      haddr = -1;
      hpb = -1;
      hpb_dst = -1;
      hpb_vid = 0;
      hpb_off = 0;
      hpb_bop = 0;
      hpb_sh = 0;
      hpb_y = 0;
      hpb_dslot = 0;
      hpb_aslot = 0;
      last_bst = -1;
      last_cpy = -1;
      last_c1 = -1;
      haddr_vid = 0;
      haddr_off = 0;
      n_fused = 0;
      n_elim = 0;
    }
  in
  rf.rparams <-
    Array.of_list
      (List.map
         (fun r -> if slot_of.(r) >= 0 then 2 * slot_of.(r) else -1)
         f.Func.params);
  let schedule =
    if dec.fuse then rpo_schedule g else List.init nblocks_g Fun.id
  in
  List.iter
    (fun bid ->
      let b = Func.block g bid in
      if not b.Block.dead then begin
        e.block_off.(bid) <- rf.rcode_len;
        e.cur_bid <- bid;
        e.pending <- 0;
        e.seg <- 0;
        e.seg_site <- -1;
        Iseq.iter
          (fun i ->
            if e.fuse then compile_instr_fused e moves i
            else compile_instr e moves i)
          b.Block.body;
        compile_term e g b
      end)
    schedule;
  patch rf e.block_off e.block_cost;
  rf.entry_off <- e.block_off.(f.Func.entry);
  rf.entry_block <- rf.block_base + f.Func.entry;
  rf.entry_cost <- e.block_cost.(f.Func.entry);
  statics rf f;
  dec.rfused_ops <- dec.rfused_ops + e.n_fused;
  dec.rops_eliminated <- dec.rops_eliminated + e.n_elim

(* ------------------------------------------------------------------ *)

let mk_rfunc ~rfid ~rname ~rlocals =
  {
    rfid;
    rname;
    rparams = [||];
    rlocals;
    rnslots = 0;
    frame_words = 0;
    rcode = [||];
    rcode_len = 0;
    rticks = [||];
    rstrs = [||];
    rnstrs = 0;
    entry_off = 0;
    entry_block = 0;
    entry_cost = 0;
    rnblocks = 0;
    block_base = 0;
    edge_base = 0;
    rnedges = 0;
    edge_src = [||];
    edge_dst = [||];
    s_instrs = [||];
    s_loads = [||];
    s_stores = [||];
    s_aloads = [||];
    s_astores = [||];
  }

(* Compile every function, assigning the dense counter id spaces; each
   function's spans get one sink slot for its synthetic blocks. *)
let compile_all (dec : t) =
  dec.rfused_ops <- 0;
  dec.rops_eliminated <- 0;
  let blocks = ref 0 and edges = ref 0 in
  List.iter
    (fun (f : Func.t) ->
      let rf = dec.rfuncs.(Hashtbl.find dec.rfids f.Func.fname) in
      rf.block_base <- !blocks;
      rf.edge_base <- !edges;
      compile_func dec rf f;
      blocks := !blocks + rf.rnblocks + 1;
      edges := !edges + rf.rnedges + 1)
    dec.rprog.Func.funcs;
  dec.rtotal_blocks <- !blocks;
  dec.rtotal_edges <- !edges

let compile ?budget:_ ?(fuse = false) (prog : Func.prog) : t =
  let tab = prog.Func.vartab in
  let nvars = Resource.num_vars tab in
  let array_len = Array.make (max nvars 1) (-1) in
  let mem_init = Array.make (max (2 * nvars) 1) 0 in
  (* all cells start as integer 0 *)
  for v = 0 to nvars - 1 do
    mem_init.((2 * v) + 1) <- -1
  done;
  let locals_tbl : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  Resource.iter_vars
    (fun v ->
      match v.Resource.vkind with
      | Resource.Array len -> array_len.(v.Resource.vid) <- len
      | Resource.Global | Resource.Struct_field _ ->
          mem_init.(2 * v.Resource.vid) <- v.Resource.vinit
      | Resource.Addr_local fn | Resource.Elem fn ->
          let cur =
            match Hashtbl.find_opt locals_tbl fn with Some l -> l | None -> []
          in
          Hashtbl.replace locals_tbl fn (v.Resource.vid :: cur)
      | Resource.Heap -> ())
    tab;
  let nfuncs = List.length prog.Func.funcs in
  let fids = Hashtbl.create (2 * nfuncs) in
  let fnames = Array.make (max nfuncs 1) "" in
  List.iteri
    (fun i (f : Func.t) ->
      Hashtbl.replace fids f.Func.fname i;
      fnames.(i) <- f.Func.fname)
    prog.Func.funcs;
  let funcs =
    Array.of_list
      (List.mapi
         (fun i (f : Func.t) ->
           let rlocals =
             match Hashtbl.find_opt locals_tbl f.Func.fname with
             | Some vids -> Array.of_list vids
             | None -> [||]
           in
           mk_rfunc ~rfid:i ~rname:f.Func.fname ~rlocals)
         prog.Func.funcs)
  in
  let rmain =
    match Hashtbl.find_opt fids "main" with Some i -> i | None -> -1
  in
  let dec =
    {
      rprog = prog;
      fuse;
      rnvars = nvars;
      rarray_len = array_len;
      rmem_init = mem_init;
      rfnames = fnames;
      rfids = fids;
      rfuncs = funcs;
      rmain;
      rtotal_blocks = 0;
      rtotal_edges = 0;
      rfused_ops = 0;
      rops_eliminated = 0;
    }
  in
  compile_all dec;
  dec

(* Recompile after the IR was transformed (promotion rewrites bodies,
   adds phis and registers) into the same buffers; only code that grew
   reallocates. *)
let refresh (dec : t) = compile_all dec
