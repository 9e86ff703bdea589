(* Memory-occurrence index keyed by variable.

   The per-web passes of promotion (the incremental updater, the
   dead-store and interval-tail steps, the same-variable rescan) each
   touch the versions of one variable.  A (function, variable) pair is
   mentioned by a few dozen instructions where the function has
   hundreds, so those passes read this index instead of walking the
   function.

   Each variable keeps its entries in parallel arrays sorted by scan
   order: the block id, the instruction, and the variable's
   definitions and uses in it with the opcode they were read from.  A
   pointer access lists each variable it may touch, a call or exit use
   each renamed one, so reading one variable's operands out of it walks
   a list; the entry keeps what the first query read for as long as the
   instruction keeps that opcode.  Removing an instruction or rewriting
   its opcode needs no update: a query checks that the instruction is
   still held by its block (its [at], which the instruction sequences
   keep), and reads the operands again when the opcode is not the one
   they came from (opcodes are immutable, so a rewrite is a new one).
   An insertion is registered by marking the (variable, block) pair;
   the next query for the variable re-derives the entries of its marked
   blocks from the blocks themselves and drops dead entries on the way. *)

open Rp_ir

type entries = {
  mutable bids : int array;
  mutable instrs : Instr.t array;
  mutable ops : Instr.opcode array;
      (** what [defs] and [uses] were read from; [unread] until then *)
  mutable defs : Resource.t list array;
  mutable uses : Resource.t list array;
  mutable len : int;
  mutable marked : Ids.bid list;  (** blocks to re-derive, unsorted *)
}

type t = { f : Func.t; mutable vars : entries option array }

let unread = Instr.Exit_use { muses = [] }

let no_instr = Instr.make (-1) unread

let make_entries n =
  {
    bids = Array.make n 0;
    instrs = Array.make n no_instr;
    ops = Array.make n unread;
    defs = Array.make n [];
    uses = Array.make n [];
    len = 0;
    marked = [];
  }

let entries t v =
  if v >= Array.length t.vars then begin
    let grown = Array.make (max 16 (2 * (v + 1))) None in
    Array.blit t.vars 0 grown 0 (Array.length t.vars);
    t.vars <- grown
  end;
  match t.vars.(v) with
  | Some e -> e
  | None ->
      let e = make_entries 8 in
      t.vars.(v) <- Some e;
      e

(* Room for [n] entries, the first [keep] kept. *)
let reserve e n ~keep =
  if n > Array.length e.bids then begin
    let g = make_entries (max n (2 * Array.length e.bids)) in
    Array.blit e.bids 0 g.bids 0 keep;
    Array.blit e.instrs 0 g.instrs 0 keep;
    Array.blit e.ops 0 g.ops 0 keep;
    Array.blit e.defs 0 g.defs 0 keep;
    Array.blit e.uses 0 g.uses 0 keep;
    e.bids <- g.bids;
    e.instrs <- g.instrs;
    e.ops <- g.ops;
    e.defs <- g.defs;
    e.uses <- g.uses
  end

(* Entry [k] := entry [j]. *)
let move e ~k ~j =
  e.bids.(k) <- e.bids.(j);
  e.instrs.(k) <- e.instrs.(j);
  e.ops.(k) <- e.ops.(j);
  e.defs.(k) <- e.defs.(j);
  e.uses.(k) <- e.uses.(j)

(* Entry [k] := [i] in block [bid], with [v]'s operands read from
   [op]. *)
let set e k bid (i : Instr.t) op defs uses =
  e.bids.(k) <- bid;
  e.instrs.(k) <- i;
  e.ops.(k) <- op;
  e.defs.(k) <- defs;
  e.uses.(k) <- uses

(* A new last entry, unread. *)
let push e bid i =
  reserve e (e.len + 1) ~keep:e.len;
  set e e.len bid i unread [] [];
  e.len <- e.len + 1

(* The versions of [v] in a list, in order. *)
let rec of_var v = function
  | [] -> []
  | (r : Resource.t) :: rest ->
      if r.base = v then r :: of_var v rest else of_var v rest

let var_defs v (op : Instr.opcode) =
  match op with
  | Instr.Store { dst; _ } | Instr.Mphi { dst; _ } ->
      if dst.base = v then [ dst ] else []
  | Instr.Ptr_store { mdefs; _ } | Instr.Call { mdefs; _ } -> of_var v mdefs
  | _ -> []

let var_uses v (op : Instr.opcode) =
  match op with
  | Instr.Load { src; _ } -> if src.base = v then [ src ] else []
  | Instr.Ptr_load { muses; _ }
  | Instr.Ptr_store { muses; _ }
  | Instr.Call { muses; _ }
  | Instr.Dummy_aload { muses }
  | Instr.Exit_use { muses } ->
      of_var v muses
  | _ -> []

let rec src_of_var v = function
  | [] -> false
  | (_, (r : Resource.t)) :: rest -> r.base = v || src_of_var v rest

(* [op], whose operands of [v] are [defs] and [uses], mentions [v]; a
   memory-phi source counts too. *)
let mentions v (op : Instr.opcode) ~defs ~uses =
  defs <> [] || uses <> []
  || match op with Instr.Mphi { srcs; _ } -> src_of_var v srcs | _ -> false

(* One entry per (variable, instruction): an instruction naming a
   variable again finds its entry still the last.  A version-0 resource
   is of a variable the function left unversioned, which no pass here
   rewrites: it gets no entry. *)
let add t bid (i : Instr.t) =
  Instr.iter_mem
    (fun (r : Resource.t) ->
      if r.ver > 0 then begin
        let e = entries t r.base in
        if e.len = 0 || e.instrs.(e.len - 1) != i then push e bid i
      end)
    i.op

let build ?(on_instr = fun _ _ -> ()) (f : Func.t) : t =
  let t = { f; vars = [||] } in
  Func.iter_blocks
    (fun b ->
      let bid = b.Block.bid in
      Block.iter_instrs
        (fun i ->
          add t bid i;
          on_instr bid i)
        b)
    f;
  t

let note t bid (i : Instr.t) =
  Instr.iter_mem
    (fun (r : Resource.t) ->
      if r.ver > 0 then begin
        let e = entries t r.base in
        if not (List.mem bid e.marked) then e.marked <- bid :: e.marked
      end)
    i.op

let live t bid (i : Instr.t) = i.at = bid && not (Func.block t.f bid).Block.dead

(* Re-derive the entries of every marked block from the block, and
   drop the entries that are no longer live, in place: compact the
   other entries to the front, then merge the marked blocks' entries in
   from the back. *)
let refresh t v e =
  match e.marked with
  | [] -> ()
  | marked ->
      e.marked <- [];
      let kept = ref 0 in
      for k = 0 to e.len - 1 do
        let bid = e.bids.(k) and i = e.instrs.(k) in
        if (not (List.mem bid marked)) && live t bid i then begin
          move e ~k:!kept ~j:k;
          incr kept
        end
      done;
      (* per marked block, in decreasing id order: its entries, last
         first *)
      let fresh =
        List.rev_map
          (fun bid ->
            let b = Func.block t.f bid and last_first = ref [] in
            if not b.Block.dead then
              Block.iter_instrs
                (fun (i : Instr.t) ->
                  let op = i.op in
                  let defs = var_defs v op and uses = var_uses v op in
                  if mentions v op ~defs ~uses then
                    last_first := (i, op, defs, uses) :: !last_first)
                b;
            (bid, !last_first))
          (List.sort_uniq Int.compare marked)
      in
      let total =
        List.fold_left (fun n (_, is) -> n + List.length is) !kept fresh
      in
      reserve e total ~keep:!kept;
      let r = ref (!kept - 1) and w = ref (total - 1) in
      List.iter
        (fun (bid, last_first) ->
          while !r >= 0 && e.bids.(!r) > bid do
            move e ~k:!w ~j:!r;
            decr r;
            decr w
          done;
          List.iter
            (fun (i, op, defs, uses) ->
              set e !w bid i op defs uses;
              decr w)
            last_first)
        fresh;
      e.len <- total

(* Visit the live entries from [k0] up to the first past block [hi]. *)
let visit t v e k0 ~hi fn =
  let k = ref k0 in
  while !k < e.len && e.bids.(!k) <= hi do
    let bid = e.bids.(!k) and i = e.instrs.(!k) in
    if live t bid i then begin
      let op = i.op in
      if op != e.ops.(!k) then begin
        e.ops.(!k) <- op;
        e.defs.(!k) <- var_defs v op;
        e.uses.(!k) <- var_uses v op
      end;
      let defs = e.defs.(!k) and uses = e.uses.(!k) in
      if mentions v op ~defs ~uses then fn bid i ~defs ~uses
    end;
    incr k
  done

let current t v =
  if v < 0 || v >= Array.length t.vars then None
  else
    match t.vars.(v) with
    | None -> None
    | Some e ->
        refresh t v e;
        Some e

let iter t v fn =
  match current t v with None -> () | Some e -> visit t v e 0 ~hi:max_int fn

let iter_range t v ~lo ~hi fn =
  match current t v with
  | None -> ()
  | Some e ->
      (* the first entry in a block at or after [lo] *)
      let a = ref 0 and b = ref e.len in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if e.bids.(mid) < lo then a := mid + 1 else b := mid
      done;
      visit t v e !a ~hi fn

let vars t =
  let acc = ref [] in
  for v = Array.length t.vars - 1 downto 0 do
    if Option.is_some t.vars.(v) then acc := v :: !acc
  done;
  !acc
