(* Per-web reference sets (paper section 4.2).

   For one SSA web inside one interval, collect the sets the promotion
   algorithm works from: the load/store references, the aliased
   references, the resources defined in the interval (split by defining
   instruction kind), the phi structure, and the unique live-in
   resource.

   Every web of an interval comes from one scan ({!of_interval}): the
   scan of {!Rp_ssa.Webs} records each memory occurrence once, and the
   occurrences are bucketed by web.  The members of a web are versions
   of one variable, so its facts are one byte per version over the
   web's version range. *)

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
   [vlo ..] of the web's least variable, and an association list for
   members of other variables (a phi joining two variables: malformed,
   hand-built IR only). *)
type facts = {
  defs : bool;
  vlo : int;
  flags : Bytes.t;
  others : (Resource.t * int) list;
}

type t = {
  base : Ids.vid;
  loads : (ref_site * Resource.t) list;
  stores : (ref_site * Resource.t) list;
  aliased_uses : (ref_site * Resource.t) list;
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
  mutable a_others : (Resource.t * int) list;
  mutable a_loads : (ref_site * Resource.t) list;
  mutable a_stores : (ref_site * Resource.t) list;
  mutable a_aliased : (ref_site * Resource.t) list;
  mutable a_phis : (ref_site * Resource.t) list;
}

(* An accumulator for a web whose least member is a version of [base],
   whose versions of [base] run over [vlo .. vhi]. *)
let make_acc ~base ~vlo ~vhi =
  {
    a_base = base;
    a_vlo = vlo;
    a_flags = Bytes.make (vhi - vlo + 1) '\000';
    a_others = [];
    a_loads = [];
    a_stores = [];
    a_aliased = [];
    a_phis = [];
  }

let flags_of ~base ~vlo flags others (r : Resource.t) =
  if r.base = base then
    let k = r.ver - vlo in
    if k >= 0 && k < Bytes.length flags then
      Char.code (Bytes.unsafe_get flags k)
    else 0
  else
    match List.find_opt (fun (o, _) -> Resource.equal o r) others with
    | Some (_, fl) -> fl
    | None -> 0

let acc_flags a r = flags_of ~base:a.a_base ~vlo:a.a_vlo a.a_flags a.a_others r

(* Set [bit] for [r], which must be a member (or [bit] = [f_member]). *)
let set a (r : Resource.t) bit =
  if r.base = a.a_base then begin
    let k = r.ver - a.a_vlo in
    Bytes.unsafe_set a.a_flags k
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get a.a_flags k) lor bit))
  end
  else
    a.a_others <-
      (r, acc_flags a r lor bit)
      :: List.filter (fun (o, _) -> not (Resource.equal o r)) a.a_others

(* An accumulator over the given members, least first. *)
let acc_of_members (members : Resource.t list) =
  match members with
  | [] -> invalid_arg "Web_info: empty web"
  | (least : Resource.t) :: _ ->
      let base = least.base in
      let vhi =
        List.fold_left
          (fun m (r : Resource.t) -> if r.base = base then max m r.ver else m)
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
  set a r f_used

(* The live-in is the least member used but not defined in the interval:
   the range of [a_base] holds the least members, [a_others] only
   versions of later variables. *)
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
  let others =
    List.sort (fun (r, _) (s, _) -> Resource.compare r s) a.a_others
  in
  List.iter
    (fun (r, fl) ->
      if fl land f_def <> 0 then defs := true;
      if outside fl then begin
        if !nout = 0 then live_in := Some r;
        incr nout
      end)
    others;
  {
    base = a.a_base;
    loads = a.a_loads;
    stores = a.a_stores;
    aliased_uses = a.a_aliased;
    phis = a.a_phis;
    live_in = !live_in;
    multiple_live_in = !nout > 1;
    facts = { defs = !defs; vlo = a.a_vlo; flags = a.a_flags; others };
  }

(* ------------------------------------------------------------------ *)
(* Every web of an interval from one recorded scan *)

let of_interval ?ids ?arena (tab : Resource.table) (f : Func.t)
    (iv : Intervals.t) : t list =
  let s = Webs.scan ?ids ?arena tab f iv.Intervals.blocks in
  let n = s.Webs.nwebs and mres = s.Webs.mres in
  let web_of_member m = s.Webs.web.(s.Webs.members.(m)) in
  (* each web's least variable and that variable's version range *)
  let base = Array.make n max_int in
  for m = 0 to s.Webs.nmembers - 1 do
    let w = web_of_member m and b = mres.(m).Resource.base in
    if b < base.(w) then base.(w) <- b
  done;
  let vlo = Array.make n max_int and vhi = Array.make n min_int in
  for m = 0 to s.Webs.nmembers - 1 do
    let w = web_of_member m and r = mres.(m) in
    if r.Resource.base = base.(w) then begin
      if r.ver < vlo.(w) then vlo.(w) <- r.ver;
      if r.ver > vhi.(w) then vhi.(w) <- r.ver
    end
  done;
  let accs =
    Array.init n (fun w -> make_acc ~base:base.(w) ~vlo:vlo.(w) ~vhi:vhi.(w))
  in
  for m = 0 to s.Webs.nmembers - 1 do
    set accs.(web_of_member m) mres.(m) f_member
  done;
  (* bucket the occurrences, in scan order *)
  let phi_web = ref (-1) in
  for k = 0 to s.Webs.nocc - 1 do
    let i = s.Webs.occ_id.(k) and what = s.Webs.occ_what.(k) in
    let w = s.Webs.web.(i) and role = what land Webs.role_mask in
    if role = Webs.role_phi then phi_web := w;
    if w >= 0 then begin
      let a = accs.(w) and r = Webs.resource s i in
      let site = s.Webs.sites.(what lsr Webs.role_bits) in
      if role = Webs.role_load then on_load a site r
      else if role = Webs.role_store then on_store a site r
      else if role = Webs.role_phi then on_phi a site r
      else if role = Webs.role_phi_src then begin
        (* a source counts as a use of the phi's own web *)
        if w = !phi_web then set a r f_used
      end
      else if role = Webs.role_alias_def then on_alias_def a r
      else on_alias_use a site r
    end
  done;
  Array.to_list (Array.map finish accs)

(* ------------------------------------------------------------------ *)
(* Given webs, from a direct scan of the interval *)

(* Scan the interval's blocks once, dispatching each occurrence of a
   resource to the accumulator of the web that owns it ([web_of], which
   answers [None] for the others). *)
let scan_blocks (f : Func.t) (iv : Intervals.t)
    (web_of : Resource.t -> acc option) =
  let each fn r = match web_of r with Some a -> fn a r | None -> () in
  Ids.IntSet.iter
    (fun bid ->
      let b = Func.block f bid in
      Block.iter_instrs
        (fun (i : Instr.t) ->
          match i.op with
          | Instr.Bin _ | Instr.Un _ | Instr.Copy _ | Instr.Addr_of _
          | Instr.Rphi _ | Instr.Print _ ->
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
                      (* phi sources always belong to the target's web: the
                         phi is what unioned them together *)
                      List.iter
                        (fun (_, r) ->
                          if acc_flags a r land f_member <> 0 then
                            set a r f_used)
                        srcs
                  | None -> ())
              | _ -> ());
              (* aliased defs (calls, pointer stores) and aliased uses *)
              if Instr.is_aliased_store i.op then
                List.iter (each on_alias_def) (Instr.mem_defs i.op);
              if Instr.is_aliased_load i.op then
                List.iter
                  (each (fun a -> on_alias_use a site))
                  (Instr.mem_uses i.op))
        b)
    iv.Intervals.blocks

(* The members of a web, least first. *)
let members (w : t) : Resource.t list =
  let x = w.facts and slice = ref [] in
  for k = Bytes.length x.flags - 1 downto 0 do
    if Char.code (Bytes.unsafe_get x.flags k) land f_member <> 0 then
      slice := { Resource.base = w.base; ver = x.vlo + k } :: !slice
  done;
  !slice @ List.map fst x.others

(* The reference sets of the one web holding [resources]: for one web
   (the loop baseline's) a numbering would cost more than it saves, and
   the web's own flags answer membership, for resources of any id. *)
let compute (f : Func.t) (iv : Intervals.t) (resources : Resource.ResSet.t) :
    t =
  let a = acc_of_members (Resource.ResSet.elements resources) in
  scan_blocks f iv (fun r ->
      if acc_flags a r land f_member <> 0 then Some a else None);
  finish a

(* The same webs' sets again, from the current IR: an earlier web of
   their variable was promoted with store removal, and the updater
   rewrote uses and definitions across the variable.  A resource's web
   is found in an array over the dense ids [ids]; one web never
   references another web's resources, so each result is that of a
   dedicated scan. *)
let rescan ?ids ?(arena = Res_ids.arena ()) (f : Func.t) (iv : Intervals.t)
    (webs : t list) : t list =
  let members = List.map members webs in
  let accs =
    Array.of_list (List.map (fun ms -> Some (acc_of_members ms)) members)
  in
  let ids = match ids with Some ids -> ids | None -> Res_ids.of_func f in
  let owner = Res_ids.ints arena ids ~slot:0 ~fill:(-1) in
  (* the webs' variables (usually one): other occurrences are skipped
     before any id lookup *)
  let nvars =
    List.fold_left
      (List.fold_left (fun n (r : Resource.t) -> max n (r.base + 1)))
      0 members
  in
  let has_var = Array.make nvars false in
  List.iteri
    (fun k ms ->
      List.iter
        (fun (r : Resource.t) ->
          has_var.(r.base) <- true;
          owner.(Res_ids.id_exn ids r) <- k)
        ms)
    members;
  scan_blocks f iv (fun r ->
      if r.base < 0 || r.base >= nvars || not has_var.(r.base) then None
      else
        let i = Res_ids.id ids r in
        if i = Res_ids.miss then None
        else
          let k = owner.(i) in
          if k < 0 then None else accs.(k));
  Array.to_list (Array.map (fun a -> finish (Option.get a)) accs)

(* ------------------------------------------------------------------ *)
(* Queries *)

let flags w r =
  let x = w.facts in
  flags_of ~base:w.base ~vlo:x.vlo x.flags x.others r

let mem w r = flags w r land f_member <> 0

let has_defs w = w.facts.defs

let defined w r = flags w r land f_def <> 0

let store_defined w r = flags w r land f_store <> 0

let phi_defined w r = flags w r land f_phi <> 0

(* A leaf operand: not defined by a phi instruction of this interval. *)
let is_leaf w r = not (phi_defined w r)

(* Slots: the versions of the range, then the other members. *)
let slots w = Bytes.length w.facts.flags + List.length w.facts.others

let slot w (r : Resource.t) =
  let x = w.facts in
  let n = Bytes.length x.flags in
  if r.base = w.base then
    let k = r.ver - x.vlo in
    if
      k >= 0 && k < n
      && Char.code (Bytes.unsafe_get x.flags k) land f_member <> 0
    then k
    else -1
  else
    let rec find j = function
      | [] -> -1
      | (o, _) :: rest ->
          if Resource.equal o r then n + j else find (j + 1) rest
    in
    find 0 x.others
