(* Memory SSA web construction (paper section 4.2, Figure 3).

   A web inside an interval is an equivalence class of singleton memory
   resources under the relation "x and y are operands/target of the
   same phi instruction located in the interval", closed transitively.
   The union-find formulation is exactly the paper's.

   Resources that appear in the interval but touch no phi form
   singleton webs — e.g. the distinct names "x1, x2, x3" created by two
   consecutive calls in straight-line code each promote independently,
   which is the finer granularity the paper advertises.

   One pass over the interval ({!scan}) runs the union-find on int
   arrays over the function's dense resource ids ({!Rp_ir.Res_ids}) and
   records every memory occurrence — resource id, role, site — in arena
   arrays, so the per-web reference sets can be bucketed from the record
   without walking the IR again.

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

let role_bits = 3

let role_mask = (1 lsl role_bits) - 1

let dummy_site =
  { instr = Instr.make (-1) (Instr.Dummy_aload { muses = [] }); bid = -1 }

type arena = {
  ints : Res_ids.arena;
  mutable occ_id : int array;
  mutable occ_what : int array;
  mutable sites : site array;
  mutable mres : Resource.t array;
}

let arena () =
  {
    ints = Res_ids.arena ();
    occ_id = [||];
    occ_what = [||];
    sites = [||];
    mres = [||];
  }

let ints a = a.ints

type scan = {
  ids : Res_ids.t;
  nocc : int;
  occ_id : int array;
  occ_what : int array;
  sites : site array;
  nwebs : int;
  web : int array;
  nmembers : int;
  members : int array;
  mres : Resource.t array;
  midx : int array;
}

(* [arr] with room for index [n], its prefix kept *)
let room arr n fill =
  if n < Array.length arr then arr
  else begin
    let grown = Array.make (max 64 (2 * (n + 1))) fill in
    Array.blit arr 0 grown 0 (Array.length arr);
    grown
  end

let scan ?ids ?(arena = arena ()) (tab : Resource.table) (f : Func.t)
    (blocks : Ids.IntSet.t) : scan =
  let ids = match ids with Some ids -> ids | None -> Res_ids.of_func f in
  let a = arena in
  (* parent.(i) < 0: resource i is not (yet) a member *)
  let parent = Res_ids.ints a.ints ids ~slot:0 ~fill:(-1) in
  let rank = Res_ids.ints a.ints ids ~slot:1 ~fill:0 in
  (* members in first-occurrence order, with their resources *)
  let members = Res_ids.ints a.ints ids ~slot:2 ~fill:0 and nmembers = ref 0 in
  (* midx.(i): member number of resource i *)
  let midx = Res_ids.ints a.ints ids ~slot:3 ~fill:0 in
  (* the growable buffers stay in locals while the scan runs *)
  let mres = ref a.mres in
  let add (r : Resource.t) =
    let i = Res_ids.id_exn ids r in
    if parent.(i) < 0 then begin
      parent.(i) <- i;
      let m = !nmembers in
      members.(m) <- i;
      midx.(i) <- m;
      if m >= Array.length !mres then mres := room !mres m r;
      !mres.(m) <- r;
      nmembers := m + 1
    end;
    i
  in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let root = find p in
      parent.(i) <- root;
      root
    end
  in
  (* union by rank *)
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      let ka = rank.(ra) and kb = rank.(rb) in
      if ka < kb then parent.(ra) <- rb
      else if kb < ka then parent.(rb) <- ra
      else begin
        parent.(rb) <- ra;
        rank.(ra) <- ka + 1
      end
    end
  in
  (* the occurrence record; an instruction's site is allocated with its
     first occurrence *)
  let nocc = ref 0 and nsites = ref 0 and site = ref (-1) and bid = ref (-1) in
  let occ_id = ref a.occ_id and occ_what = ref a.occ_what in
  let sites = ref a.sites in
  let record (ins : Instr.t) role i =
    if i <> Res_ids.miss then begin
      if !site < 0 then begin
        site := !nsites;
        if !site >= Array.length !sites then
          sites := room !sites !site dummy_site;
        !sites.(!site) <- { instr = ins; bid = !bid };
        incr nsites
      end;
      let k = !nocc in
      if k >= Array.length !occ_id then begin
        occ_id := room !occ_id k 0;
        occ_what := room !occ_what k 0
      end;
      Array.unsafe_set !occ_id k i;
      Array.unsafe_set !occ_what k ((!site lsl role_bits) lor role);
      nocc := k + 1
    end
  in
  (* promotability per variable, looked up once per scan *)
  let promotable =
    let n = Resource.num_vars tab in
    let known = Array.init n (Resource.promotable tab) in
    fun v -> if v >= 0 && v < n then known.(v) else Resource.promotable tab v
  in
  (* a defined or used resource: a member when its variable is promotable *)
  let touch (r : Resource.t) =
    if promotable r.base then add r else Res_ids.id ids r
  in
  let touch_all i role rs = List.iter (fun r -> record i role (touch r)) rs in
  Ids.IntSet.iter
    (fun b ->
      bid := b;
      Block.iter_instrs
        (fun (i : Instr.t) ->
          site := -1;
          match i.op with
          | Instr.Load { src; _ } -> record i role_load (touch src)
          | Instr.Store { dst; _ } -> record i role_store (touch dst)
          | Instr.Mphi { dst; srcs } ->
              let d = touch dst in
              record i role_phi d;
              if promotable dst.Resource.base then
                List.iter
                  (fun (_, s) ->
                    let j = add s in
                    union d j;
                    record i role_phi_src j)
                  srcs
              else if d <> Res_ids.miss then
                List.iter
                  (fun (_, s) -> record i role_phi_src (Res_ids.id ids s))
                  srcs
          | Instr.Call { mdefs; muses; _ } ->
              touch_all i role_alias_def mdefs;
              touch_all i role_alias_use muses
          | Instr.Ptr_store { mdefs; muses; _ } ->
              touch_all i role_alias_def mdefs;
              List.iter (fun r -> ignore (touch r)) muses
          | Instr.Ptr_load { muses; _ }
          | Instr.Dummy_aload { muses }
          | Instr.Exit_use { muses } ->
              touch_all i role_alias_use muses
          | Instr.Bin _ | Instr.Un _ | Instr.Copy _ | Instr.Addr_of _
          | Instr.Rphi _ | Instr.Print _ ->
              ())
        (Func.block f b))
    blocks;
  a.occ_id <- !occ_id;
  a.occ_what <- !occ_what;
  a.sites <- !sites;
  a.mres <- !mres;
  (* number the classes by the first occurrence of a member *)
  let n = !nmembers in
  let web = Res_ids.ints a.ints ids ~slot:4 ~fill:(-1) and nwebs = ref 0 in
  for m = 0 to n - 1 do
    let i = members.(m) in
    let root = find i in
    if web.(root) < 0 then begin
      web.(root) <- !nwebs;
      incr nwebs
    end;
    web.(i) <- web.(root)
  done;
  {
    ids;
    nocc = !nocc;
    occ_id = a.occ_id;
    occ_what = a.occ_what;
    sites = a.sites;
    nwebs = !nwebs;
    web;
    nmembers = n;
    members;
    mres = a.mres;
    midx;
  }

let resource s i = s.mres.(s.midx.(i))

(* All webs of the blocks in [blocks].  Each web is the list of its
   member resources.  Only resources of promotable variables are
   considered; arrays and heap names never form webs. *)
let in_blocks ?ids (tab : Resource.table) (f : Func.t) (blocks : Ids.IntSet.t)
    : Resource.t list list =
  let s = scan ?ids tab f blocks in
  let cls = Array.make s.nwebs [] in
  for m = s.nmembers - 1 downto 0 do
    let w = s.web.(s.members.(m)) in
    cls.(w) <- s.mres.(m) :: cls.(w)
  done;
  Array.to_list cls
