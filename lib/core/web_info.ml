(* Per-web reference sets (paper section 4.2).

   For one SSA web inside one interval, collect the sets the promotion
   algorithm works from: the load/store references, the aliased
   references, the resources defined in the interval (split by defining
   instruction kind), the phi structure, and the unique live-in
   resource.

   Every web of an interval comes from one scan ({!of_interval}): the
   scan of {!Rp_ssa.Webs} records each occurrence of a web candidate (a
   resource of a promotable variable the function renamed) once, and
   the occurrences are bucketed by web.  A phi joins versions of one
   variable ({!Rp_ssa.Verify} rejects any other), so the members of a
   web are versions of one variable and its facts are one byte per
   version over the web's version range. *)

open Rp_ir
open Rp_analysis
module Webs = Rp_ssa.Webs

type point = At_block_end of Ids.bid | Before_instr of Ids.bid * Instr.t

let point_bid = function At_block_end b -> b | Before_instr (b, _) -> b

type ref_site = Webs.site = { instr : Instr.t; bid : Ids.bid }

(* Bits of a member's flag byte. *)
let f_member = 1

let f_def = 2 (* defined in the interval *)

let f_store = 4 (* by a singleton store *)

let f_phi = 8 (* by a phi of the interval *)

let f_used = 16 (* used in the interval *)

(* A web's membership and definition facts: a flag byte per version
   [vlo ..] of the web's variable. *)
type facts = { defs : bool; vlo : int; flags : Bytes.t }

type t = {
  base : Ids.vid;
  loads : (ref_site * Resource.t) list;
  stores : (ref_site * Resource.t) list;
  aliased_uses : (ref_site * Resource.t) list;
  aliased : bool;
  phis : (ref_site * Resource.t) list;
  live_in : Resource.t option;
  multiple_live_in : bool;
  facts : facts;
}

(* Mutable accumulator for one web during the interval scan. *)
type acc = {
  a_base : Ids.vid;
  a_vlo : int;
  a_flags : Bytes.t;
  mutable a_loads : (ref_site * Resource.t) list;
  mutable a_stores : (ref_site * Resource.t) list;
  mutable a_aliased : (ref_site * Resource.t) list;
  mutable a_has_aliased : bool;
  mutable a_phis : (ref_site * Resource.t) list;
}

(* An accumulator for a web of versions [vlo .. vhi] of [base]. *)
let make_acc ~base ~vlo ~vhi =
  {
    a_base = base;
    a_vlo = vlo;
    a_flags = Bytes.make (vhi - vlo + 1) '\000';
    a_loads = [];
    a_stores = [];
    a_aliased = [];
    a_has_aliased = false;
    a_phis = [];
  }

let flags_of ~base ~vlo flags (r : Resource.t) =
  let k = r.ver - vlo in
  if r.base = base && k >= 0 && k < Bytes.length flags then
    Char.code (Bytes.unsafe_get flags k)
  else 0

let acc_flags a r = flags_of ~base:a.a_base ~vlo:a.a_vlo a.a_flags r

(* Set [bit] for [r], a version of the web's variable in its range. *)
let set a (r : Resource.t) bit =
  let k = r.ver - a.a_vlo in
  Bytes.unsafe_set a.a_flags k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get a.a_flags k) lor bit))

let several_vars () = invalid_arg "Web_info: a web of several variables"

(* An accumulator over the given members, least first. *)
let acc_of_members (members : Resource.t list) =
  match members with
  | [] -> invalid_arg "Web_info: empty web"
  | (least : Resource.t) :: _ ->
      let base = least.base in
      let vhi =
        List.fold_left
          (fun m (r : Resource.t) ->
            if r.base <> base then several_vars ();
            max m r.ver)
          least.ver members
      in
      let a = make_acc ~base ~vlo:least.ver ~vhi in
      List.iter (fun r -> set a r f_member) members;
      a

(* The occurrence handlers, shared by the recorded and the direct scan.
   Each prepends, so every list ends in reverse scan order. *)
let on_load a site r =
  a.a_loads <- (site, r) :: a.a_loads;
  set a r f_used

let on_store a site r =
  a.a_stores <- (site, r) :: a.a_stores;
  set a r (f_def lor f_store)

let on_phi a site r =
  a.a_phis <- (site, r) :: a.a_phis;
  set a r (f_def lor f_phi)

let on_alias_def a r = set a r f_def

let on_alias_use a site r =
  a.a_aliased <- (site, r) :: a.a_aliased;
  a.a_has_aliased <- true;
  set a r f_used

(* The live-in is the least member used but not defined in the
   interval. *)
let finish (a : acc) : t =
  let outside fl = fl land f_used <> 0 && fl land f_def = 0 in
  let live_in = ref None and nout = ref 0 and defs = ref false in
  for k = 0 to Bytes.length a.a_flags - 1 do
    let fl = Char.code (Bytes.unsafe_get a.a_flags k) in
    if fl land f_def <> 0 then defs := true;
    if outside fl then begin
      if !nout = 0 then
        live_in := Some { Resource.base = a.a_base; ver = a.a_vlo + k };
      incr nout
    end
  done;
  {
    base = a.a_base;
    loads = a.a_loads;
    stores = a.a_stores;
    aliased_uses = a.a_aliased;
    aliased = a.a_has_aliased;
    phis = a.a_phis;
    live_in = !live_in;
    multiple_live_in = !nout > 1;
    facts = { defs = !defs; vlo = a.a_vlo; flags = a.a_flags };
  }

(* ------------------------------------------------------------------ *)
(* Every web of an interval from one recorded scan *)

let of_interval ?arena ?(all_lists = true) (tab : Resource.table) (f : Func.t)
    (iv : Intervals.t) : t list =
  let s = Webs.scan ?arena tab f iv.Intervals.blocks in
  let n = s.Webs.nwebs and web = s.Webs.web and res = s.Webs.res in
  let members = s.Webs.members in
  (* each web's variable and version range *)
  let base = Array.make n (-1) in
  let vlo = Array.make n max_int and vhi = Array.make n min_int in
  for m = 0 to s.Webs.nmembers - 1 do
    let i = members.(m) in
    let w = web.(i) and r = res.(i) in
    if base.(w) < 0 then base.(w) <- r.Resource.base
    else if base.(w) <> r.Resource.base then several_vars ();
    if r.ver < vlo.(w) then vlo.(w) <- r.ver;
    if r.ver > vhi.(w) then vhi.(w) <- r.ver
  done;
  let accs =
    Array.init n (fun w -> make_acc ~base:base.(w) ~vlo:vlo.(w) ~vhi:vhi.(w))
  in
  for m = 0 to s.Webs.nmembers - 1 do
    let i = members.(m) in
    set accs.(web.(i)) res.(i) f_member
  done;
  (* the webs whose phi and aliased-use lists are built: with a load or
     a store, or all *)
  let listed = Bytes.make n (if all_lists then '\001' else '\000') in
  if not all_lists then
    for k = 0 to s.Webs.nocc - 1 do
      let role = s.Webs.occ_what.(k) land Webs.role_mask in
      if role = Webs.role_load || role = Webs.role_store then
        Bytes.unsafe_set listed web.(s.Webs.occ_id.(k)) '\001'
    done;
  (* bucket the occurrences, in scan order; every occurrence is of a
     member, and a phi's sources are in its web *)
  let sites = s.Webs.sites in
  for k = 0 to s.Webs.nocc - 1 do
    let i = s.Webs.occ_id.(k) and what = s.Webs.occ_what.(k) in
    let w = web.(i) in
    let a = accs.(w) and r = res.(i) in
    let role = what land Webs.role_mask in
    if role = Webs.role_phi_src then set a r f_used
    else if role = Webs.role_alias_def then on_alias_def a r
    else if Bytes.unsafe_get listed w = '\000' then begin
      (* a load or a store would have listed the web *)
      if role = Webs.role_phi then set a r (f_def lor f_phi)
      else begin
        a.a_has_aliased <- true;
        set a r f_used
      end
    end
    else begin
      let site = sites.(what lsr Webs.role_bits) in
      if role = Webs.role_load then on_load a site r
      else if role = Webs.role_store then on_store a site r
      else if role = Webs.role_phi then on_phi a site r
      else on_alias_use a site r
    end
  done;
  Array.to_list (Array.map finish accs)

(* ------------------------------------------------------------------ *)
(* Given webs, from a direct scan of the interval *)

(* Dispatch each occurrence of a resource in instruction [i] of block
   [bid] to the accumulator of the web that owns it ([web_of], which
   answers [None] for the others).  An aliased instruction's may-defs
   and uses are [defs] and [uses]: all of them, or the ones of the one
   variable the webs' members belong to. *)
let scan_instr (web_of : Resource.t -> acc option) bid (i : Instr.t) ~defs
    ~uses =
  let each fn r = match web_of r with Some a -> fn a r | None -> () in
  match i.op with
  | Instr.Bin _ | Instr.Un _ | Instr.Copy _ | Instr.Addr_of _ | Instr.Rphi _
  | Instr.Print _ ->
      (* no memory resource *)
      ()
  | _ ->
      let site = { instr = i; bid } in
      (match i.op with
      | Instr.Load { src; _ } -> each (fun a -> on_load a site) src
      | Instr.Store { dst; _ } -> each (fun a -> on_store a site) dst
      | Instr.Mphi { dst; srcs } -> (
          match web_of dst with
          | Some a ->
              on_phi a site dst;
              (* phi sources always belong to the target's web: the phi
                 is what unioned them together *)
              List.iter
                (fun (_, r) ->
                  if acc_flags a r land f_member <> 0 then set a r f_used)
                srcs
          | None -> ())
      | _ -> ());
      (* aliased defs (calls, pointer stores) and aliased uses *)
      if Instr.is_aliased_store i.op then List.iter (each on_alias_def) defs;
      if Instr.is_aliased_load i.op then
        List.iter (each (fun a -> on_alias_use a site)) uses

(* The members of a web, least first. *)
let members (w : t) : Resource.t list =
  let x = w.facts and slice = ref [] in
  for k = Bytes.length x.flags - 1 downto 0 do
    if Char.code (Bytes.unsafe_get x.flags k) land f_member <> 0 then
      slice := { Resource.base = w.base; ver = x.vlo + k } :: !slice
  done;
  !slice

(* The reference sets of the one web holding [resources], from a scan
   of the interval's blocks: for one web (the loop baseline's) a
   numbering would cost more than it saves, and the web's own flags
   answer membership, for resources of any id. *)
let compute (f : Func.t) (iv : Intervals.t) (resources : Resource.ResSet.t) :
    t =
  let a = acc_of_members (Resource.ResSet.elements resources) in
  let web_of r = if acc_flags a r land f_member <> 0 then Some a else None in
  Ids.IntSet.iter
    (fun bid ->
      Block.iter_instrs
        (fun i ->
          scan_instr web_of bid i ~defs:(Instr.mem_defs i.op)
            ~uses:(Instr.mem_uses i.op))
        (Func.block f bid))
    iv.Intervals.blocks;
  finish a

(* The same webs' sets again, from the current IR: an earlier web of
   their variable was promoted with store removal, and the updater
   rewrote uses and definitions across the variable.  One web never
   references another web's resources, so each result is that of a
   dedicated scan.  Only the variable's entries in [index] are read,
   and a resource's web is found in an array over its versions. *)
let rescan (index : Rp_ssa.Occ_index.t) (iv : Intervals.t) (webs : t list) :
    t list =
  match webs with
  | [] -> []
  | w0 :: _ ->
      let base = w0.base in
      let members = List.map members webs in
      let accs = Array.of_list (List.map acc_of_members members) in
      if Array.exists (fun a -> a.a_base <> base) accs then several_vars ();
      let top =
        List.fold_left
          (List.fold_left (fun m (r : Resource.t) -> max m r.ver))
          0 members
      in
      let owner = Array.make (top + 1) (-1) in
      List.iteri
        (fun k -> List.iter (fun (r : Resource.t) -> owner.(r.ver) <- k))
        members;
      let web_of (r : Resource.t) =
        if r.base <> base || r.ver < 0 || r.ver > top then None
        else
          let k = owner.(r.ver) in
          if k < 0 then None else Some accs.(k)
      in
      let blocks = iv.Intervals.blocks in
      if not (Ids.IntSet.is_empty blocks) then
        Rp_ssa.Occ_index.iter_range index base ~lo:(Ids.IntSet.min_elt blocks)
          ~hi:(Ids.IntSet.max_elt blocks) (fun bid i ~defs ~uses ->
            if Ids.IntSet.mem bid blocks then
              scan_instr web_of bid i ~defs ~uses);
      Array.to_list (Array.map finish accs)

(* ------------------------------------------------------------------ *)
(* Queries *)

let flags w r =
  let x = w.facts in
  flags_of ~base:w.base ~vlo:x.vlo x.flags r

let mem w r = flags w r land f_member <> 0

let has_defs w = w.facts.defs

let defined w r = flags w r land f_def <> 0

let store_defined w r = flags w r land f_store <> 0

let phi_defined w r = flags w r land f_phi <> 0

(* A leaf operand: not defined by a phi instruction of this interval. *)
let is_leaf w r = not (phi_defined w r)

(* Slots: the versions of the range. *)
let slots w = Bytes.length w.facts.flags

let slot w (r : Resource.t) =
  if flags w r land f_member <> 0 then r.ver - w.facts.vlo else -1
