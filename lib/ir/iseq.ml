(* Order-maintained instruction sequences.

   A sequence is a circular doubly-linked list of intrusive nodes
   around a sentinel, plus a back-pointer from every node to the
   sequence that owns it.  Nodes are reached in O(1) through a
   per-function iid→node index shared by all the function's sequences
   (both the phi section and the body of every block), so positional
   edits — insert before/after a given instruction, remove — cost O(1)
   with no list rebuilding, and membership ("is this iid in *this*
   sequence?") is the owner check.

   Invariants:
   - an iid lives in at most one sequence at a time; detach before
     re-inserting elsewhere (insertion [Hashtbl.replace]s the index
     entry, detach removes it);
   - [tag] identifies the owning block (its bid), which is how
     [Func.find_instr] maps an index hit back to a block;
   - every insertion and removal bumps the sequence's [edits] count,
     and so does {!set_op}, so a pass can tell whether a sequence
     changed since it last read it;
   - iteration captures the successor before invoking the callback, so
     the callback may remove any node (including the current one);
     nodes inserted during iteration after the current position are
     NOT guaranteed to be visited — the same contract callers already
     had when iteration walked an immutable list snapshot.  A detached
     node keeps its old prev/next pointers, so an iterator parked on it
     rejoins the live list. *)

type node = {
  mutable instr : Instr.t;
  mutable prev : node;
  mutable next : node;
  mutable owner : t option;  (* None: sentinel or detached *)
}

and t = {
  sentinel : node;
  mutable len : int;
  mutable edits : int;  (* insertions, removals and opcode rewrites *)
  index : (Ids.iid, node) Hashtbl.t;  (* shared, per function *)
  tag : int;  (* owning block id *)
}

type index = (Ids.iid, node) Hashtbl.t

let create_index () : index = Hashtbl.create 64

(* Any opcode does for the sentinel; its instr is never exposed. *)
let sentinel_instr : Instr.t = Instr.make (-1) (Instr.Dummy_aload { muses = [] })

let create ~(tag : int) ~(index : index) : t =
  let rec s =
    { instr = sentinel_instr; prev = s; next = s; owner = None }
  in
  { sentinel = s; len = 0; edits = 0; index; tag }

let length t = t.len

let edits t = t.edits

(* Rewrite an instruction of [t] in place. *)
let set_op t (i : Instr.t) op =
  i.Instr.op <- op;
  t.edits <- t.edits + 1

let is_empty t = t.len = 0

(* O(1) lookup through the shared index: the owning sequence's tag and
   the instruction, when the iid is attached anywhere. *)
let index_lookup (index : index) (iid : Ids.iid) : (int * Instr.t) option =
  match Hashtbl.find_opt index iid with
  | Some ({ owner = Some o; _ } as n) -> Some (o.tag, n.instr)
  | Some { owner = None; _ } | None -> None

(* Insert [i] right after node [pos] (which may be the sentinel). *)
let attach_after (t : t) (pos : node) (i : Instr.t) : unit =
  let n = { instr = i; prev = pos; next = pos.next; owner = Some t } in
  pos.next.prev <- n;
  pos.next <- n;
  t.len <- t.len + 1;
  t.edits <- t.edits + 1;
  i.Instr.at <- t.tag;
  Hashtbl.replace t.index i.Instr.iid n

let push_front t i = attach_after t t.sentinel i

let push_back t i = attach_after t t.sentinel.prev i

(* The node for [iid] if it belongs to *this* sequence. *)
let node_in (t : t) (iid : Ids.iid) : node option =
  match Hashtbl.find_opt t.index iid with
  | Some ({ owner = Some o; _ } as n) when o == t -> Some n
  | _ -> None

let mem t iid = node_in t iid <> None

let insert_before t ~iid i =
  match node_in t iid with
  | Some n -> attach_after t n.prev i
  | None -> raise Not_found

let insert_after t ~iid i =
  match node_in t iid with
  | Some n -> attach_after t n i
  | None -> raise Not_found

(* Unlink [n]; its prev/next are left untouched so an iterator parked
   on it can still rejoin the list. *)
let detach (t : t) (n : node) : unit =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.owner <- None;
  n.instr.Instr.at <- -1;
  t.len <- t.len - 1;
  t.edits <- t.edits + 1;
  Hashtbl.remove t.index n.instr.Instr.iid

let remove t ~iid =
  match node_in t iid with Some n -> detach t n | None -> ()

let clear t =
  let s = t.sentinel in
  let cur = ref s.next in
  while !cur != s do
    let n = !cur in
    cur := n.next;
    detach t n
  done

let iter f t =
  let s = t.sentinel in
  let cur = ref s.next in
  while !cur != s do
    let n = !cur in
    cur := n.next;
    f n.instr
  done

let iteri f t =
  let s = t.sentinel in
  let cur = ref s.next in
  let k = ref 0 in
  while !cur != s do
    let n = !cur in
    cur := n.next;
    f !k n.instr;
    incr k
  done

let iter_rev f t =
  let s = t.sentinel in
  let cur = ref s.prev in
  while !cur != s do
    let n = !cur in
    cur := n.prev;
    f n.instr
  done

let fold_left f acc t =
  let acc = ref acc in
  iter (fun i -> acc := f !acc i) t;
  !acc

(* [fold_right f t acc], tail-recursive by walking backwards. *)
let fold_right f t acc =
  let acc = ref acc in
  iter_rev (fun i -> acc := f i !acc) t;
  !acc

let to_list t = fold_right List.cons t []

let exists p t =
  let s = t.sentinel in
  let rec go n = n != s && (p n.instr || go n.next) in
  go t.sentinel.next

let find_opt p t =
  let s = t.sentinel in
  let rec go n =
    if n == s then None else if p n.instr then Some n.instr else go n.next
  in
  go t.sentinel.next

let find t ~iid = Option.map (fun n -> n.instr) (node_in t iid)

let first t = if is_empty t then None else Some t.sentinel.next.instr

let last t = if is_empty t then None else Some t.sentinel.prev.instr

let filter_in_place p t = iter (fun i -> if not (p i) then remove t ~iid:i.Instr.iid) t
