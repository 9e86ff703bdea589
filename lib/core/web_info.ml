(* Per-web reference sets (paper section 4.2).

   For one SSA web inside one interval, collect the sets the promotion
   algorithm works from: the load/store references, the aliased
   references, the resources defined in the interval (split by defining
   instruction kind), the phi structure, and the unique live-in
   resource. *)

open Rp_ir
open Rp_analysis

type point = At_block_end of Ids.bid | Before_instr of Ids.bid * Instr.t

let point_bid = function At_block_end b -> b | Before_instr (b, _) -> b

type ref_site = { instr : Instr.t; bid : Ids.bid }

type t = {
  base : Ids.vid;
  resources : Resource.ResSet.t;
  loads : (ref_site * Resource.t) list;  (** singleton loads of the web *)
  stores : (ref_site * Resource.t) list;  (** singleton stores of the web *)
  aliased_uses : (ref_site * Resource.t) list;
      (** aliased loads (calls, pointer loads, dummies, exit uses) using
          a web resource *)
  phis : (ref_site * Resource.t) list;  (** memory phis of the web *)
  def_res : Resource.ResSet.t;  (** resources defined in the interval *)
  store_res : Resource.ResSet.t;  (** subset defined by singleton stores *)
  phi_res : Resource.ResSet.t;  (** subset defined by interval phis *)
  live_in : Resource.t option;  (** unique resource defined outside *)
  multiple_live_in : bool;  (** malformed web: promotion is skipped *)
}

(* Mutable accumulator for one web during the interval scan. *)
type acc = {
  a_base : Ids.vid;
  a_resources : Resource.ResSet.t;
  mutable a_loads : (ref_site * Resource.t) list;
  mutable a_stores : (ref_site * Resource.t) list;
  mutable a_aliased : (ref_site * Resource.t) list;
  mutable a_phis : (ref_site * Resource.t) list;
  mutable a_def_res : Resource.ResSet.t;
  mutable a_store_res : Resource.ResSet.t;
  mutable a_phi_res : Resource.ResSet.t;
  mutable a_used : Resource.ResSet.t;
}

let finish (a : acc) : t =
  let outside = Resource.ResSet.diff a.a_used a.a_def_res in
  let live_in = Resource.ResSet.choose_opt outside in
  {
    base = a.a_base;
    resources = a.a_resources;
    loads = a.a_loads;
    stores = a.a_stores;
    aliased_uses = a.a_aliased;
    phis = a.a_phis;
    def_res = a.a_def_res;
    store_res = a.a_store_res;
    phi_res = a.a_phi_res;
    live_in;
    multiple_live_in = Resource.ResSet.cardinal outside > 1;
  }

let empty_acc base resources =
  {
    a_base = base;
    a_resources = resources;
    a_loads = [];
    a_stores = [];
    a_aliased = [];
    a_phis = [];
    a_def_res = Resource.ResSet.empty;
    a_store_res = Resource.ResSet.empty;
    a_phi_res = Resource.ResSet.empty;
    a_used = Resource.ResSet.empty;
  }

let new_acc resources =
  match Resource.ResSet.choose_opt resources with
  | Some r -> empty_acc r.Resource.base resources
  | None -> invalid_arg "Web_info.compute: empty web"

(* The answer of [web_of] for a resource no web owns. *)
let no_web = empty_acc (-1) Resource.ResSet.empty

(* Scan the interval's blocks once, dispatching each occurrence of a
   resource to the accumulator of the web that owns it ([web_of], which
   answers [no_web] for the others). *)
let scan (f : Func.t) (iv : Intervals.t) (web_of : Resource.t -> acc) =
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
              | Instr.Load { src; _ } ->
                  let a = web_of src in
                  if a != no_web then begin
                    a.a_loads <- (site, src) :: a.a_loads;
                    a.a_used <- Resource.ResSet.add src a.a_used
                  end
              | Instr.Store { dst; _ } ->
                  let a = web_of dst in
                  if a != no_web then begin
                    a.a_stores <- (site, dst) :: a.a_stores;
                    a.a_def_res <- Resource.ResSet.add dst a.a_def_res;
                    a.a_store_res <- Resource.ResSet.add dst a.a_store_res
                  end
              | Instr.Mphi { dst; srcs } ->
                  let a = web_of dst in
                  if a != no_web then begin
                    a.a_phis <- (site, dst) :: a.a_phis;
                    a.a_def_res <- Resource.ResSet.add dst a.a_def_res;
                    a.a_phi_res <- Resource.ResSet.add dst a.a_phi_res;
                    (* phi sources always belong to the target's web: the
                       phi is what unioned them together *)
                    List.iter
                      (fun (_, r) ->
                        if Resource.ResSet.mem r a.a_resources then
                          a.a_used <- Resource.ResSet.add r a.a_used)
                      srcs
                  end
              | _ -> ());
              (* aliased defs (calls, pointer stores) and aliased uses *)
              if Instr.is_aliased_store i.op then
                List.iter
                  (fun r ->
                    let a = web_of r in
                    if a != no_web then
                      a.a_def_res <- Resource.ResSet.add r a.a_def_res)
                  (Instr.mem_defs i.op);
              if Instr.is_aliased_load i.op then
                List.iter
                  (fun r ->
                    let a = web_of r in
                    if a != no_web then begin
                      a.a_aliased <- (site, r) :: a.a_aliased;
                      a.a_used <- Resource.ResSet.add r a.a_used
                    end)
                  (Instr.mem_uses i.op))
        b)
    iv.Intervals.blocks

(* Build the reference sets for every web at the same time.  A
   resource's web is found in an array over the dense resource ids; one
   web never references another web's resources, so the per-web result
   is identical to a dedicated scan. *)
let compute_all ?ids ?(arena = Res_ids.arena ()) (f : Func.t)
    (iv : Intervals.t) (webs : Resource.ResSet.t list) : t list =
  let accs = Array.of_list (List.map new_acc webs) in
  let ids = match ids with Some ids -> ids | None -> Res_ids.of_func f in
  let owner = Res_ids.ints arena ids ~slot:0 ~fill:(-1) in
  Array.iteri
    (fun k a ->
      Resource.ResSet.iter
        (fun r -> owner.(Res_ids.id_exn ids r) <- k)
        a.a_resources)
    accs;
  scan f iv (fun r ->
      let i = Res_ids.id ids r in
      if i = Res_ids.miss then no_web
      else
        let k = owner.(i) in
        if k < 0 then no_web else accs.(k));
  Array.to_list (Array.map finish accs)

(* The reference sets of the one web holding [resources], checking the
   web's set directly: for one web (the loop baseline's, or a rescan
   after an earlier web of the same variable rewrote the function) a
   numbering would cost more than it saves. *)
let compute (f : Func.t) (iv : Intervals.t) (resources : Resource.ResSet.t) :
    t =
  let a = new_acc resources in
  scan f iv (fun r -> if Resource.ResSet.mem r resources then a else no_web);
  finish a

let has_defs w = not (Resource.ResSet.is_empty w.def_res)

let store_defined w r = Resource.ResSet.mem r w.store_res

let phi_defined w r = Resource.ResSet.mem r w.phi_res

(* A leaf operand: not defined by a phi instruction of this interval. *)
let is_leaf w r = not (phi_defined w r)
