(* Memory SSA web construction (paper section 4.2, Figure 3).

   A web inside an interval is an equivalence class of singleton memory
   resources under the relation "x and y are operands/target of the
   same phi instruction located in the interval", closed transitively.
   The union-find formulation is exactly the paper's.

   Resources that appear in the interval but touch no phi form
   singleton webs — e.g. the distinct names "x1, x2, x3" created by two
   consecutive calls in straight-line code each promote independently,
   which is the finer granularity the paper advertises.

   A scan of an interval ({!scan}) runs the union-find on int arrays
   over dense resource ids and lists every memory occurrence of a
   candidate — resource id, role, site — in arena arrays, so the
   per-web reference sets can be bucketed from that list without
   walking the IR again.

   The scan reads the IR through per-block records kept in the arena.
   A walk of a block appends the block's occurrences to the arena's
   log and notes the block's edit stamp ({!Rp_ir.Block.stamp}); the
   log holds ids, which the arena hands out to resources as it first
   meets them and keeps for the function.  An interval's scan
   concatenates the records of its blocks by increasing id, walking
   again only a block whose stamp moved — an instruction was inserted
   or removed, or an opcode rewritten.  Nested intervals share blocks,
   so bottom-up promotion walks each block once per edit instead of
   once per enclosing interval.  A fresh arena has no records: its scan
   walks every block, through the same code.

   Promotion visits the webs in the order they come out, so the order
   decides register and version numbering.  The paper leaves it open;
   here a web's place is the first occurrence of any of its members in
   the scan, and its members are listed in first-occurrence order. *)

open Rp_ir

type site = { instr : Instr.t; bid : Ids.bid }

(* Occurrence roles, in the low [role_bits] bits of [occ_what]. *)
let role_load = 0

let role_store = 1

let role_phi = 2

let role_phi_src = 3

let role_alias_def = 4

let role_alias_use = 5

(* In block records only: a weak-update use of a pointer store, which
   makes its resource a member but is no occurrence. *)
let role_member = 6

let role_bits = 3

let role_mask = (1 lsl role_bits) - 1

let dummy_site =
  { instr = Instr.make (-1) (Instr.Dummy_aload { muses = [] }); bid = -1 }

let no_resource = { Resource.base = -1; ver = -1 }

type arena = {
  (* the bound function's resources: [num.(base).(ver)] is the id of
     that version (-1: none yet), [res] the resource of each id *)
  mutable func : Func.t option;
  mutable tab : Resource.table;
  mutable known : bool array;  (* promotability of the table's variables *)
  mutable num : int array array;
  mutable res : Resource.t array;
  mutable nids : int;
  (* per id; entries of the last scan's non-members are clean (parent
     -1, rank 0, web -1) *)
  mutable parent : int array;
  mutable rank : int array;
  mutable web : int array;
  mutable members : int array;
  mutable nmembers : int;  (* the last scan's: the entries to clean *)
  (* the last scan's occurrences *)
  mutable occ_id : int array;
  mutable occ_what : int array;
  (* the block records: every walk appends its block's occurrences to
     the log, [lwhat] indexing [sites]; block [b]'s record is
     [rlen.(b)] occurrences from [roff.(b)], taken at stamp
     [rstamp.(b)] (-1: none) *)
  mutable lid : int array;
  mutable lwhat : int array;
  mutable llen : int;
  mutable sites : site array;
  mutable nsites : int;
  mutable rstamp : int array;
  mutable roff : int array;
  mutable rlen : int array;
  (* the walk in progress: block [w_bid] (-1: none) at stamp [w_stamp],
     its first occurrence at [w_off], and the site of the instruction
     being read (-1: none yet) *)
  mutable w_bid : Ids.bid;
  mutable w_stamp : int;
  mutable w_off : int;
  mutable w_site : int;
}

let arena () =
  {
    func = None;
    tab = Resource.create_table ();
    known = [||];
    num = [||];
    res = [||];
    nids = 0;
    parent = [||];
    rank = [||];
    web = [||];
    members = [||];
    nmembers = 0;
    occ_id = [||];
    occ_what = [||];
    lid = [||];
    lwhat = [||];
    llen = 0;
    sites = [||];
    nsites = 0;
    rstamp = [||];
    roff = [||];
    rlen = [||];
    w_bid = -1;
    w_stamp = -1;
    w_off = 0;
    w_site = -1;
  }

type scan = {
  nocc : int;
  occ_id : int array;
  occ_what : int array;
  sites : site array;
  nwebs : int;
  web : int array;
  nmembers : int;
  members : int array;
  res : Resource.t array;
}

(* [arr] with room for index [n], its prefix kept *)
let room arr n fill =
  if n < Array.length arr then arr
  else begin
    let grown = Array.make (max 64 (2 * (n + 1))) fill in
    Array.blit arr 0 grown 0 (Array.length arr);
    grown
  end

(* ------------------------------------------------------------------ *)
(* Block records *)

(* Close the walk in progress into its block's record. *)
let seal a =
  let bid = a.w_bid in
  if bid >= 0 then begin
    if bid >= Array.length a.rstamp then begin
      a.rstamp <- room a.rstamp bid (-1);
      a.roff <- room a.roff bid 0;
      a.rlen <- room a.rlen bid 0
    end;
    a.rstamp.(bid) <- a.w_stamp;
    a.roff.(bid) <- a.w_off;
    a.rlen.(bid) <- a.llen - a.w_off;
    a.w_bid <- -1
  end

(* Drop the ids and records, keeping the storage. *)
let release a =
  for i = 0 to a.nids - 1 do
    let r = a.res.(i) in
    a.num.(r.base).(r.ver) <- -1
  done;
  Array.fill a.res 0 a.nids no_resource;
  a.nids <- 0;
  Array.fill a.sites 0 a.nsites dummy_site;
  a.nsites <- 0;
  a.llen <- 0;
  Array.fill a.rstamp 0 (Array.length a.rstamp) (-1);
  a.w_bid <- -1;
  a.func <- None

(* Keep ids and records for [f] only: those of another function are
   dropped. *)
let bind a (tab : Resource.table) (f : Func.t) =
  match a.func with
  | Some g when g == f && a.tab == tab -> seal a
  | Some _ | None ->
      release a;
      a.func <- Some f;
      a.tab <- tab;
      a.known <- Array.init (Resource.num_vars tab) (Resource.promotable tab)

let promotable a v =
  if v < Array.length a.known then Array.unsafe_get a.known v
  else Resource.promotable a.tab v

(* A web candidate: a resource of a promotable variable that the
   function renamed ({!Construct} leaves every other variable at
   version 0, and a renamed variable has no version 0). *)
let candidate a (r : Resource.t) = r.ver > 0 && promotable a r.base

(* The id of [r], handed out when the arena first meets it. *)
let id a (r : Resource.t) =
  let b = r.base and v = r.ver in
  if b < 0 || v < 0 then invalid_arg "Webs: a resource of negative version";
  let row = if b < Array.length a.num then a.num.(b) else [||] in
  if v < Array.length row && row.(v) >= 0 then row.(v)
  else begin
    if b >= Array.length a.num then a.num <- room a.num b [||];
    let row = room a.num.(b) v (-1) in
    a.num.(b) <- row;
    let i = a.nids in
    if i >= Array.length a.res then begin
      a.res <- room a.res i no_resource;
      a.parent <- room a.parent i (-1);
      a.rank <- room a.rank i 0;
      a.web <- room a.web i (-1);
      a.members <- room a.members i 0
    end;
    row.(v) <- i;
    a.res.(i) <- r;
    a.nids <- i + 1;
    i
  end

let start a (b : Block.t) =
  a.w_bid <- b.Block.bid;
  a.w_stamp <- Block.stamp b;
  a.w_off <- a.llen

let push a (r : Resource.t) what =
  let k = a.llen in
  if k >= Array.length a.lid then begin
    a.lid <- room a.lid k 0;
    a.lwhat <- room a.lwhat k 0
  end;
  Array.unsafe_set a.lid k (id a r);
  Array.unsafe_set a.lwhat k what;
  a.llen <- k + 1

(* An occurrence of [r] in [i]; the instruction's site is allocated with
   its first occurrence. *)
let put a (i : Instr.t) role r =
  if a.w_site < 0 then begin
    let s = a.nsites in
    if s >= Array.length a.sites then a.sites <- room a.sites s dummy_site;
    a.sites.(s) <- { instr = i; bid = a.w_bid };
    a.nsites <- s + 1;
    a.w_site <- s
  end;
  push a r ((a.w_site lsl role_bits) lor role)

let rec put_candidates a i role = function
  | [] -> ()
  | (r : Resource.t) :: rest ->
      if candidate a r then put a i role r;
      put_candidates a i role rest

(* Record the occurrences of instruction [i] of the walked block: every
   candidate, and every source of a phi whose target is one. *)
let record_instr a (i : Instr.t) =
  a.w_site <- -1;
  match i.op with
  | Instr.Load { src; _ } -> if candidate a src then put a i role_load src
  | Instr.Store { dst; _ } -> if candidate a dst then put a i role_store dst
  | Instr.Mphi { dst; srcs } ->
      if candidate a dst then begin
        put a i role_phi dst;
        List.iter (fun (_, s) -> put a i role_phi_src s) srcs
      end
  | Instr.Call { mdefs; muses; _ } ->
      put_candidates a i role_alias_def mdefs;
      put_candidates a i role_alias_use muses
  | Instr.Ptr_store { mdefs; muses; _ } ->
      put_candidates a i role_alias_def mdefs;
      List.iter
        (fun (r : Resource.t) -> if candidate a r then push a r role_member)
        muses
  | Instr.Ptr_load { muses; _ }
  | Instr.Dummy_aload { muses }
  | Instr.Exit_use { muses } ->
      put_candidates a i role_alias_use muses
  | Instr.Bin _ | Instr.Un _ | Instr.Copy _ | Instr.Addr_of _ | Instr.Rphi _
  | Instr.Print _ ->
      ()

let recorder a tab f =
  bind a tab f;
  fun bid i ->
    if bid <> a.w_bid then begin
      seal a;
      start a (Func.block f bid)
    end;
    record_instr a i

(* Make block [bid]'s record current: walk the block again when its
   stamp moved since the record was taken. *)
let refresh a (f : Func.t) bid =
  let b = Func.block f bid in
  if bid >= Array.length a.rstamp || a.rstamp.(bid) <> Block.stamp b then begin
    start a b;
    Block.iter_instrs (record_instr a) b;
    seal a
  end

(* ------------------------------------------------------------------ *)
(* The interval scan *)

let rec find parent i =
  let p = Array.unsafe_get parent i in
  if p = i then i
  else begin
    let root = find parent p in
    Array.unsafe_set parent i root;
    root
  end

(* union by rank *)
let union parent rank a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then begin
    let ka = rank.(ra) and kb = rank.(rb) in
    if ka < kb then parent.(ra) <- rb
    else if kb < ka then parent.(rb) <- ra
    else begin
      parent.(rb) <- ra;
      rank.(ra) <- ka + 1
    end
  end

let scan ?(arena = arena ()) (tab : Resource.table) (f : Func.t)
    (blocks : Ids.IntSet.t) : scan =
  let a = arena in
  bind a tab f;
  (* the records first: a walk may number new resources and grow the
     log *)
  let nocc = ref 0 in
  Ids.IntSet.iter
    (fun bid ->
      refresh a f bid;
      nocc := !nocc + a.rlen.(bid))
    blocks;
  if !nocc > Array.length a.occ_id then begin
    let len = max !nocc (2 * Array.length a.occ_id) in
    a.occ_id <- Array.make len 0;
    a.occ_what <- Array.make len 0
  end;
  (* clean the last scan's members *)
  let parent = a.parent and rank = a.rank and web = a.web in
  let members = a.members in
  for m = 0 to a.nmembers - 1 do
    let i = members.(m) in
    parent.(i) <- -1;
    rank.(i) <- 0;
    web.(i) <- -1
  done;
  (* the occurrences: the blocks' records end to end, members in
     first-occurrence order; parent.(i) < 0: resource i is not (yet) a
     member *)
  let lid = a.lid and lwhat = a.lwhat in
  let occ_id = a.occ_id and occ_what = a.occ_what in
  let o = ref 0 and n = ref 0 and phi = ref (-1) in
  Ids.IntSet.iter
    (fun bid ->
      let off = a.roff.(bid) in
      for k = off to off + a.rlen.(bid) - 1 do
        let i = Array.unsafe_get lid k and what = Array.unsafe_get lwhat k in
        if parent.(i) < 0 then begin
          parent.(i) <- i;
          members.(!n) <- i;
          incr n
        end;
        let role = what land role_mask in
        if role <> role_member then begin
          if role = role_phi then phi := i
          else if role = role_phi_src then union parent rank !phi i;
          Array.unsafe_set occ_id !o i;
          Array.unsafe_set occ_what !o what;
          incr o
        end
      done)
    blocks;
  a.nmembers <- !n;
  (* number the classes by the first occurrence of a member *)
  let nwebs = ref 0 in
  for m = 0 to !n - 1 do
    let i = members.(m) in
    let root = find parent i in
    if web.(root) < 0 then begin
      web.(root) <- !nwebs;
      incr nwebs
    end;
    web.(i) <- web.(root)
  done;
  {
    nocc = !o;
    occ_id;
    occ_what;
    sites = a.sites;
    nwebs = !nwebs;
    web;
    nmembers = !n;
    members;
    res = a.res;
  }
