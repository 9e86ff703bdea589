(** Functions and whole programs.

    A function owns its blocks (indexed densely by [bid]), fresh-id
    counters for registers, instructions and memory-resource versions,
    and an execution profile (block and edge frequencies). The program
    owns the memory-variable table, shared across functions. *)

(** Per-function analysis results cached on the function itself; the
    analyses extend this type with their own constructors (e.g. the
    dominator tree in [Rp_analysis.Dom]), so the IR layer needs no
    dependency on them. *)
type cache_entry = ..

type t = {
  fname : string;
  mutable params : Ids.reg list;
  blocks : Block.t Vec.t;
  iindex : Iseq.index;
      (** shared iid→node index over every block's phi and body
          sequences; makes {!find_instr} O(1) *)
  mutable entry : Ids.bid;
  mutable next_reg : int;
  mutable next_iid : int;
  reg_names : (Ids.reg, string) Hashtbl.t;
      (** optional name hints for readable dumps *)
  mver : (Ids.vid, int) Hashtbl.t;
      (** highest SSA version handed out per memory variable *)
  mutable freq : (Ids.bid, float) Hashtbl.t;  (** block execution frequency *)
  efreq : (Ids.bid * Ids.bid, float) Hashtbl.t;  (** edge frequency *)
  mutable cfg_gen : int;
      (** CFG generation stamp: bumped by {!add_block},
          {!touch_cfg} and the CFG-rewriting passes *)
  mutable analysis_cache : (int * cache_entry) option;
      (** one cached analysis result with the [cfg_gen] it was
          computed at; stale entries are simply overwritten *)
}

type prog = { mutable funcs : t list; vartab : Resource.table }

val dummy_block : Block.t

val create_func : name:string -> t

val create_prog : unit -> prog

val add_func : prog -> t -> unit

val find_func : prog -> string -> t option

(** Deep copy for destructive backend lowering: preserved block /
    instruction / register ids, fresh instruction cells and sequence
    index, copied profile.  The clone shares nothing mutable with the
    original. *)
val clone : t -> t

(** {2 Fresh ids} *)

val fresh_reg : ?name:string -> t -> Ids.reg

(** [reg_name f r] is the dump name, e.g. ["x.12"] or ["t12"]. *)
val reg_name : t -> Ids.reg -> string

val fresh_iid : t -> Ids.iid

val mk_instr : t -> Instr.opcode -> Instr.t

(** Fresh SSA version for a memory variable (starting from 1). *)
val fresh_ver : t -> Ids.vid -> Resource.t

(** {2 Blocks} *)

(** Bump the CFG generation stamp, invalidating cached analyses. Call
    after mutating the CFG shape in a way the helpers here cannot see —
    retargeting a terminator, marking blocks dead. {!add_block} calls
    it automatically. *)
val touch_cfg : t -> unit

val add_block : t -> Block.t

(** @raise Invalid_argument when the id is out of range. *)
val block : t -> Ids.bid -> Block.t

val num_blocks : t -> int

(** Iterate over live (non-dead) blocks. *)
val iter_blocks : (Block.t -> unit) -> t -> unit

val fold_blocks : ('a -> Block.t -> 'a) -> 'a -> t -> 'a

val live_blocks : t -> Block.t list

val iter_instrs : (Block.t -> Instr.t -> unit) -> t -> unit

(** O(1) through the shared instruction index; [None] for iids in dead
    blocks. *)
val find_instr : t -> iid:Ids.iid -> (Block.t * Instr.t) option

(** {2 Profile accessors} *)

val block_freq : t -> Ids.bid -> float

val set_block_freq : t -> Ids.bid -> float -> unit

(** Every block's {!block_freq}, indexed by block id. *)
val freq_snapshot : t -> float array

val edge_freq : t -> src:Ids.bid -> dst:Ids.bid -> float

val set_edge_freq : t -> src:Ids.bid -> dst:Ids.bid -> float -> unit
