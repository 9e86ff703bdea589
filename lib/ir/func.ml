(* Functions and whole programs.

   A function owns its blocks (indexed densely by [bid]), fresh-id
   counters for registers, instructions and memory-resource versions,
   and an execution profile (block and edge frequencies).

   The program owns the memory-variable table, which is shared across
   functions: globals are visible everywhere, and address-exposed locals
   get their own entries tagged with the owning function. *)

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
      (** optional name hints for registers, for readable dumps *)
  mver : (Ids.vid, int) Hashtbl.t;
      (** highest SSA version handed out per memory variable *)
  mutable clobbers : Ids.vid array;
      (** what a call may define and use, ascending; unlisted members
          are implicit, at version 0 *)
  mutable exit_vars : Ids.vid array;  (** the same for an [Exit_use] *)
  mutable freq : (Ids.bid, float) Hashtbl.t;  (** block execution frequency *)
  efreq : (Ids.bid * Ids.bid, float) Hashtbl.t;  (** edge frequency *)
  mutable cfg_gen : int;
      (** bumped whenever the CFG shape changes; analyses compare it to
          decide whether a cached result is still valid *)
  mutable analysis_cache : (int * cache_entry) option;
      (** one cached analysis result, stamped with the [cfg_gen] it was
          computed at (the dominator tree, in practice) *)
}

type prog = {
  mutable funcs : t list;
  vartab : Resource.table;
}

let dummy_block : Block.t =
  let b = Block.make ~bid:(-1) ~index:(Iseq.create_index ()) in
  b.Block.dead <- true;
  b

let create_func ~name =
  {
    fname = name;
    params = [];
    blocks = Vec.create ~dummy:dummy_block;
    iindex = Iseq.create_index ();
    entry = 0;
    next_reg = 0;
    next_iid = 0;
    reg_names = Hashtbl.create 16;
    mver = Hashtbl.create 16;
    clobbers = [||];
    exit_vars = [||];
    freq = Hashtbl.create 16;
    efreq = Hashtbl.create 16;
    cfg_gen = 0;
    analysis_cache = None;
  }

let create_prog () = { funcs = []; vartab = Resource.create_table () }

let add_func prog f = prog.funcs <- prog.funcs @ [ f ]

let find_func prog name =
  List.find_opt (fun f -> f.fname = name) prog.funcs

(* Deep copy for backend lowering: the caller gets a function it may
   destroy (out-of-SSA rewriting, edge splitting) without disturbing
   the original, which analyses and the differential oracles keep
   using.  Block ids, instruction ids and register ids are preserved;
   instruction cells are fresh (they are mutable), opcode values are
   shared (they are replaced wholesale, never mutated in place). *)
let clone (f : t) : t =
  let g = create_func ~name:f.fname in
  g.params <- f.params;
  g.entry <- f.entry;
  g.next_reg <- f.next_reg;
  g.next_iid <- f.next_iid;
  g.clobbers <- f.clobbers;
  g.exit_vars <- f.exit_vars;
  Hashtbl.iter (fun r n -> Hashtbl.replace g.reg_names r n) f.reg_names;
  Hashtbl.iter (fun v n -> Hashtbl.replace g.mver v n) f.mver;
  Hashtbl.iter (fun b x -> Hashtbl.replace g.freq b x) f.freq;
  Hashtbl.iter (fun e x -> Hashtbl.replace g.efreq e x) f.efreq;
  for bid = 0 to Vec.length f.blocks - 1 do
    let b = Vec.get f.blocks bid in
    let nb = Block.make ~bid ~index:g.iindex in
    nb.dead <- b.Block.dead;
    nb.term <- b.Block.term;
    nb.preds <- b.Block.preds;
    Iseq.iter
      (fun (i : Instr.t) -> Iseq.push_back nb.phis (Instr.make i.iid i.op))
      b.Block.phis;
    Iseq.iter
      (fun (i : Instr.t) -> Iseq.push_back nb.body (Instr.make i.iid i.op))
      b.Block.body;
    Vec.push g.blocks nb
  done;
  g

(* [rs] with the members of [set] from the [k]-th on that [keep] accepts
   merged in at version 0; shared, with no allocation, where none is *)
let rec add_members set keep k rs =
  if k = Array.length set then rs
  else
    let v = set.(k) in
    match rs with
    | (r : Resource.t) :: rest when r.base <= v ->
        let k = if r.base = v then k + 1 else k in
        let rest' = add_members set keep k rest in
        if rest' == rest then rs else r :: rest'
    | _ ->
        let rs' = add_members set keep (k + 1) rs in
        if keep v then Resource.unversioned v :: rs' else rs'

let expand ~keep f (op : Instr.opcode) =
  match op with
  | Call c ->
      let mdefs = add_members f.clobbers keep 0 c.mdefs in
      let muses =
        if c.muses == c.mdefs then mdefs
        else add_members f.clobbers keep 0 c.muses
      in
      if mdefs == c.mdefs && muses == c.muses then op
      else Call { c with mdefs; muses }
  | Exit_use { muses } ->
      let m = add_members f.exit_vars keep 0 muses in
      if m == muses then op else Exit_use { muses = m }
  | _ -> op

(* ------------------------------------------------------------------ *)
(* Fresh ids *)

let fresh_reg ?name f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  (match name with
  | Some n -> Hashtbl.replace f.reg_names r n
  | None -> ());
  r

let reg_name f r =
  match Hashtbl.find_opt f.reg_names r with
  | Some n -> Printf.sprintf "%s.%d" n r
  | None -> Printf.sprintf "t%d" r

let fresh_iid f =
  let i = f.next_iid in
  f.next_iid <- i + 1;
  i

let mk_instr f op : Instr.t = Instr.make (fresh_iid f) op

(* Fresh SSA version for memory variable [vid]. *)
let fresh_ver f vid =
  let v = (match Hashtbl.find_opt f.mver vid with Some v -> v | None -> 0) + 1 in
  Hashtbl.replace f.mver vid v;
  { Resource.base = vid; ver = v }

(* ------------------------------------------------------------------ *)
(* Blocks *)

let touch_cfg f = f.cfg_gen <- f.cfg_gen + 1

let add_block f : Block.t =
  touch_cfg f;
  let bid = Vec.length f.blocks in
  let b = Block.make ~bid ~index:f.iindex in
  Vec.push f.blocks b;
  b

let block f bid : Block.t = Vec.get f.blocks bid

let num_blocks f = Vec.length f.blocks

let iter_blocks fn f =
  Vec.iter (fun (b : Block.t) -> if not b.dead then fn b) f.blocks

let fold_blocks fn acc f =
  Vec.fold_left (fun acc (b : Block.t) -> if b.dead then acc else fn acc b) acc f.blocks

let live_blocks f =
  List.filter (fun (b : Block.t) -> not b.dead) (Vec.to_list f.blocks)

let iter_instrs fn f =
  iter_blocks (fun b -> Block.iter_instrs (fun i -> fn b i) b) f

(* Find the block and instruction for a given iid — O(1) through the
   shared instruction index. *)
let find_instr f ~iid =
  match Iseq.index_lookup f.iindex iid with
  | Some (bid, i) when bid >= 0 && bid < num_blocks f ->
      let b = block f bid in
      if b.Block.dead then None else Some (b, i)
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Profile accessors *)

let block_freq f bid =
  match Hashtbl.find_opt f.freq bid with Some x -> x | None -> 0.0

let set_block_freq f bid x = Hashtbl.replace f.freq bid x

let freq_snapshot f = Array.init (num_blocks f) (block_freq f)

let edge_freq f ~src ~dst =
  match Hashtbl.find_opt f.efreq (src, dst) with Some x -> x | None -> 0.0

let set_edge_freq f ~src ~dst x = Hashtbl.replace f.efreq (src, dst) x
