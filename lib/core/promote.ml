(* The register promotion algorithm (paper section 4, Figures 2/4/5/6).

   Driver: promote bottom-up over the interval tree.  Within each
   interval, build the memory SSA webs, and promote each web
   independently:

   - a web with no definitions gets one load in the interval preheader
     and every load in the web becomes a copy;
   - a web with definitions gets the full treatment: a copy after every
     store records the stored value in a virtual register (initVRMap),
     loads are inserted at the phi leaves, loads of phi/store-defined
     resources are replaced by copies of the materialised value
     (materializeStoreValue builds the mirroring register phis), and —
     when the profile says it pays — the original stores are deleted
     after compensation stores are placed before the aliased loads that
     depend on them and in the interval tails for live-out values, with
     the incremental SSA updater repairing the memory SSA form;
   - a dummy aliased load summarising the web is left in the interval
     preheader for the parent interval, and removed by cleanup.

   Profitability (section 4.3) lives in {!Cost_model}: webs are priced
   against the block execution frequencies stored on the function,
   which the pipeline fills from an interpreter profile (or the static
   estimator), and admitted or skipped with a structured reason.  When
   the cost model carries a register budget, each interval's webs are
   ordered by descending frequency-weighted profit and admitted
   greedily until the predicted pressure saturates the budget. *)

open Rp_ir
open Rp_analysis
open Rp_ssa

type config = {
  engine : Incremental.engine;  (** IDF engine for the SSA updater *)
  allow_store_removal : bool;  (** master switch, for the ablation *)
  cost : Cost_model.t;  (** profitability threshold + register budget *)
  insert_dummies : bool;
      (** leave dummy aliased loads for the parent interval; off for the
          loop-based baseline, which has no parent cooperation *)
}

let default_config =
  {
    engine = Incremental.Cytron;
    allow_store_removal = true;
    cost = Cost_model.paper;
    insert_dummies = true;
  }

type stats = {
  mutable webs_seen : int;
  mutable webs_promoted : int;
  mutable webs_promoted_no_defs : int;
  mutable webs_store_removal : int;
  mutable webs_skipped_profit : int;
  mutable webs_skipped_pressure : int;
  mutable webs_skipped_malformed : int;
  mutable loads_replaced : int;
  mutable loads_inserted : int;
  mutable stores_inserted : int;
  mutable stores_deleted : int;
  mutable dummies_added : int;
  mutable reg_phis_added : int;
}

let empty_stats () =
  {
    webs_seen = 0;
    webs_promoted = 0;
    webs_promoted_no_defs = 0;
    webs_store_removal = 0;
    webs_skipped_profit = 0;
    webs_skipped_pressure = 0;
    webs_skipped_malformed = 0;
    loads_replaced = 0;
    loads_inserted = 0;
    stores_inserted = 0;
    stores_deleted = 0;
    dummies_added = 0;
    reg_phis_added = 0;
  }

(* Pure field-by-field sum. *)
let add (a : stats) (b : stats) : stats =
  {
    webs_seen = a.webs_seen + b.webs_seen;
    webs_promoted = a.webs_promoted + b.webs_promoted;
    webs_promoted_no_defs = a.webs_promoted_no_defs + b.webs_promoted_no_defs;
    webs_store_removal = a.webs_store_removal + b.webs_store_removal;
    webs_skipped_profit = a.webs_skipped_profit + b.webs_skipped_profit;
    webs_skipped_pressure = a.webs_skipped_pressure + b.webs_skipped_pressure;
    webs_skipped_malformed = a.webs_skipped_malformed + b.webs_skipped_malformed;
    loads_replaced = a.loads_replaced + b.loads_replaced;
    loads_inserted = a.loads_inserted + b.loads_inserted;
    stores_inserted = a.stores_inserted + b.stores_inserted;
    stores_deleted = a.stores_deleted + b.stores_deleted;
    dummies_added = a.dummies_added + b.dummies_added;
    reg_phis_added = a.reg_phis_added + b.reg_phis_added;
  }

let to_alist (s : stats) : (string * int) list =
  [
    ("webs_seen", s.webs_seen);
    ("webs_promoted", s.webs_promoted);
    ("webs_promoted_no_defs", s.webs_promoted_no_defs);
    ("webs_store_removal", s.webs_store_removal);
    ("webs_skipped_profit", s.webs_skipped_profit);
    ("webs_skipped_pressure", s.webs_skipped_pressure);
    ("webs_skipped_malformed", s.webs_skipped_malformed);
    ("loads_replaced", s.loads_replaced);
    ("loads_inserted", s.loads_inserted);
    ("stores_inserted", s.stores_inserted);
    ("stores_deleted", s.stores_deleted);
    ("dummies_added", s.dummies_added);
    ("reg_phis_added", s.reg_phis_added);
  ]

(* Fold [src] into [acc], field by field. *)
let accumulate (acc : stats) (src : stats) : unit =
  let s = add acc src in
  acc.webs_seen <- s.webs_seen;
  acc.webs_promoted <- s.webs_promoted;
  acc.webs_promoted_no_defs <- s.webs_promoted_no_defs;
  acc.webs_store_removal <- s.webs_store_removal;
  acc.webs_skipped_profit <- s.webs_skipped_profit;
  acc.webs_skipped_pressure <- s.webs_skipped_pressure;
  acc.webs_skipped_malformed <- s.webs_skipped_malformed;
  acc.loads_replaced <- s.loads_replaced;
  acc.loads_inserted <- s.loads_inserted;
  acc.stores_inserted <- s.stores_inserted;
  acc.stores_deleted <- s.stores_deleted;
  acc.dummies_added <- s.dummies_added;
  acc.reg_phis_added <- s.reg_phis_added

(* ------------------------------------------------------------------ *)
(* Web promotion (section 4.4) *)

exception Promotion_bug of string

let bug fmt = Format.kasprintf (fun m -> raise (Promotion_bug m)) fmt

type web_ctx = {
  f : Func.t;
  index : Occ_index.t;  (** kept current through every insertion *)
  w : Web_info.t;
  stats : stats;
  vr_map : (Resource.t, Ids.reg) Hashtbl.t;
  leaf_loads : (Resource.t * Ids.bid, Ids.reg) Hashtbl.t;
  phi_of : (Resource.t, Instr.t * Ids.bid) Hashtbl.t;
}

(* initVRMap: after every store st [x] = v, insert t = v and record
   x -> t. *)
let init_vr_map (ctx : web_ctx) =
  List.iter
    (fun ((site : Web_info.ref_site), dst) ->
      match site.instr.Instr.op with
      | Instr.Store { src; _ } ->
          let t = Func.fresh_reg ctx.f in
          let copy = Func.mk_instr ctx.f (Instr.Copy { dst = t; src }) in
          Block.insert_after
            (Func.block ctx.f site.bid)
            ~iid:site.instr.Instr.iid copy;
          Hashtbl.replace ctx.vr_map dst t
      | _ -> bug "store reference is not a store")
    ctx.w.Web_info.stores

(* insertLoadsAtPhiLeaves: a load of x at the end of block l for every
   (x, l) in loads_added. *)
let insert_loads_at_phi_leaves (ctx : web_ctx) (la : Cost_model.PointSet.t) =
  Cost_model.PointSet.iter
    (fun (x, l) ->
      let t = Func.fresh_reg ctx.f in
      let load = Func.mk_instr ctx.f (Instr.Load { dst = t; src = x }) in
      Block.insert_at_end (Func.block ctx.f l) load;
      Occ_index.note ctx.index l load;
      Hashtbl.replace ctx.leaf_loads (x, l) t;
      ctx.stats.loads_inserted <- ctx.stats.loads_inserted + 1)
    la

(* materializeStoreValue (Figure 6): the virtual register holding the
   value of resource [x], creating mirroring register phis on demand. *)
let rec materialize (ctx : web_ctx) (x : Resource.t) : Ids.reg =
  match Hashtbl.find_opt ctx.vr_map x with
  | Some t -> t
  | None -> (
      match Hashtbl.find_opt ctx.phi_of x with
      | None ->
          bug "materialize: %a is neither in vrMap nor phi-defined"
            Resource.pp_raw x
      | Some (phi, bid) ->
          let srcs = Instr.mphi_srcs phi.Instr.op in
          (* reserve the target now: a loop phi references itself through
             the back edge *)
          let t0 = Func.fresh_reg ctx.f in
          Hashtbl.replace ctx.vr_map x t0;
          let reg_srcs =
            List.map
              (fun (l, xi) ->
                if
                  Web_info.is_leaf ctx.w xi
                  && not (Web_info.store_defined ctx.w xi)
                then
                  match Hashtbl.find_opt ctx.leaf_loads (xi, l) with
                  | Some t -> (l, t)
                  | None ->
                      bug "materialize: missing leaf load for %a at b%d"
                        Resource.pp_raw xi l
                else (l, materialize ctx xi))
              srcs
          in
          let rphi =
            Func.mk_instr ctx.f (Instr.Rphi { dst = t0; srcs = reg_srcs })
          in
          Block.insert_phi_after (Func.block ctx.f bid) ~iid:phi.Instr.iid
            rphi;
          ctx.stats.reg_phis_added <- ctx.stats.reg_phis_added + 1;
          t0)

(* replaceLoadsByCopies (Figure 5). *)
let replace_loads_by_copies (ctx : web_ctx) =
  List.iter
    (fun ((site : Web_info.ref_site), r) ->
      if Web_info.store_defined ctx.w r || Web_info.phi_defined ctx.w r then begin
        let v = materialize ctx r in
        (match site.instr.Instr.op with
        | Instr.Load { dst; _ } ->
            site.instr.Instr.op <- Instr.Copy { dst; src = Instr.Reg v }
        | _ -> bug "load reference is not a load");
        ctx.stats.loads_replaced <- ctx.stats.loads_replaced + 1
      end)
    ctx.w.Web_info.loads

(* insertStoresForAliasedLoads: a cloned store of x's register value at
   each stores_added point.  Returns the cloned resources. *)
let insert_stores (ctx : web_ctx) (sa : (Resource.t * Web_info.point) list) :
    Resource.ResSet.t =
  List.fold_left
    (fun acc (x, point) ->
      let v = materialize ctx x in
      let clone = Func.fresh_ver ctx.f x.Resource.base in
      let store =
        Func.mk_instr ctx.f (Instr.Store { dst = clone; src = Instr.Reg v })
      in
      (match point with
      | Web_info.At_block_end l -> Block.insert_at_end (Func.block ctx.f l) store
      | Web_info.Before_instr (bid, i) ->
          Block.insert_before (Func.block ctx.f bid) ~iid:i.Instr.iid store);
      Occ_index.note ctx.index (Web_info.point_bid point) store;
      ctx.stats.stores_inserted <- ctx.stats.stores_inserted + 1;
      Resource.ResSet.add clone acc)
    Resource.ResSet.empty sa

(* The definition of [base] reaching the end of block [bid]: last
   definition in the block, else walk up the dominator tree. *)
let reaching_def_at_end (index : Occ_index.t) (dom : Dom.t) ~(base : Ids.vid)
    (bid : Ids.bid) : Resource.t option =
  let last_def_in b =
    let found = ref None in
    Occ_index.iter_range index base ~lo:b ~hi:b (fun _ _ ~defs ~uses:_ ->
        List.iter (fun r -> found := Some r) defs);
    !found
  in
  let rec walk b =
    match last_def_in b with
    | Some r -> Some r
    | None -> (
        match Dom.idom dom b with Some p -> walk p | None -> None)
  in
  walk bid

(* insertStoresAtIntervalTails: for each exit edge whose reaching
   definition is a store/phi-defined web resource with uses outside the
   interval, store the materialised value at the head of the tail
   block. *)
let insert_stores_at_tails (ctx : web_ctx) (dom : Dom.t) (iv : Intervals.t) :
    Resource.ResSet.t =
  let base = ctx.w.Web_info.base in
  let outside bid = not (Ids.IntSet.mem bid iv.Intervals.blocks) in
  (* used in a block outside the interval; a phi source is used at the
     end of its predecessor *)
  let live_outside (r : Resource.t) =
    let found = ref false in
    Occ_index.iter ctx.index base (fun bid (i : Instr.t) ~defs:_ ~uses ->
        if outside bid && List.exists (Resource.equal r) uses then
          found := true;
        List.iter
          (fun (p, s) -> if Resource.equal r s && outside p then found := true)
          (Instr.mphi_srcs i.op));
    !found
  in
  List.fold_left
    (fun acc (src, tail) ->
      match reaching_def_at_end ctx.index dom ~base src with
      | Some r
        when (Web_info.store_defined ctx.w r || Web_info.phi_defined ctx.w r)
             && live_outside r ->
          let v = materialize ctx r in
          let clone = Func.fresh_ver ctx.f r.Resource.base in
          let store =
            Func.mk_instr ctx.f
              (Instr.Store { dst = clone; src = Instr.Reg v })
          in
          Block.insert_at_start (Func.block ctx.f tail) store;
          Occ_index.note ctx.index tail store;
          ctx.stats.stores_inserted <- ctx.stats.stores_inserted + 1;
          Resource.ResSet.add clone acc
      | Some _ | None -> acc)
    Resource.ResSet.empty iv.Intervals.exit_edges

(* Marks over the web's slots ({!Web_info.slot}) of its store-defined
   resources that some instruction uses, from the index entries of the
   stores' variables. *)
let used_stored (index : Occ_index.t) (w : Web_info.t) : Bytes.t =
  let used = Bytes.make (Web_info.slots w) '\000' in
  let note r =
    if Web_info.store_defined w r then
      Bytes.set used (Web_info.slot w r) '\001'
  in
  List.sort_uniq Int.compare
    (List.map (fun (_, (r : Resource.t)) -> r.base) w.Web_info.stores)
  |> List.iter (fun base ->
         Occ_index.iter index base (fun _ (i : Instr.t) ~defs:_ ~uses ->
             List.iter note uses;
             List.iter (fun (_, r) -> note r) (Instr.mphi_srcs i.op)));
  used

(* deleteStores: remove the web's original stores whose resource has no
   remaining uses.  When the incremental updater ran ([updated]), its
   step 4 already deleted every unprotected definition of the variable
   left without uses, so a store still in place has uses. *)
let delete_dead_stores (ctx : web_ctx) ~(updated : bool) =
  let w = ctx.w in
  let stores = w.Web_info.stores in
  let used = lazy (used_stored ctx.index w) in
  List.iter
    (fun ((site : Web_info.ref_site), dst) ->
      let b = Func.block ctx.f site.bid in
      let still_there =
        Block.find_instr b ~iid:site.instr.Instr.iid <> None
      in
      if not still_there then
        (* the incremental updater's step 4 already removed it *)
        ctx.stats.stores_deleted <- ctx.stats.stores_deleted + 1
      else if
        (not updated)
        && Bytes.get (Lazy.force used) (Web_info.slot w dst) = '\000'
      then begin
        Block.remove_instr b ~iid:site.instr.Instr.iid;
        ctx.stats.stores_deleted <- ctx.stats.stores_deleted + 1
      end)
    stores

(* dummy aliased load in the interval preheader, summarising this web
   for the parent interval *)
let add_dummy (f : Func.t) (index : Occ_index.t) (w : Web_info.t)
    (stats : stats) (cfg : config) (iv : Intervals.t) =
  if not cfg.insert_dummies then ()
  else
    match w.Web_info.live_in with
    | Some r ->
        let d = Func.mk_instr f (Instr.Dummy_aload { muses = [ r ] }) in
        Block.insert_at_end (Func.block f iv.Intervals.preheader) d;
        Occ_index.note index iv.Intervals.preheader d;
        stats.dummies_added <- stats.dummies_added + 1
    | None ->
        (* no live-in: the web is entirely local to the interval (e.g.
           versions created and consumed between two calls); nothing to
           keep alive for the parent *)
        ()

(* ------------------------------------------------------------------ *)

(* Returns true when the store-removal path ran, i.e. when the
   incremental updater rewrote the function.  That is the only web
   transformation that can touch instructions of OTHER webs (the
   updater renames uses and sweeps dead definitions across every
   version of the variable), so the caller uses it to invalidate
   precomputed web infos of the same base. *)
let promote_web (cfg : config) ~(freq : float array) ~(index : Occ_index.t)
    ~(on_edit : Occ_index.t -> unit) (f : Func.t) (dom : Dom.t)
    (iv : Intervals.t) (stats : stats) (pctx : Cost_model.pressure_ctx option)
    (w : Web_info.t) : bool =
  stats.webs_seen <- stats.webs_seen + 1;
  if w.Web_info.multiple_live_in then begin
    stats.webs_skipped_malformed <- stats.webs_skipped_malformed + 1;
    false
  end
  else begin
    let d =
      Cost_model.evaluate ~allow_store_removal:cfg.allow_store_removal ~freq f
        dom iv w
    in
    match Cost_model.admit cfg.cost d pctx with
    | Cost_model.Skip reason ->
        (match reason with
        | Cost_model.Not_profitable ->
            stats.webs_skipped_profit <- stats.webs_skipped_profit + 1
        | Cost_model.Pressure_saturated ->
            stats.webs_skipped_pressure <- stats.webs_skipped_pressure + 1);
        (* paper fig 4: unpromoted webs with references get a dummy; with
           inclusive interval scanning the parent sees the remaining
           loads/stores directly, so the dummy only matters (and only
           helps hoist compensation stores to the preheader) when the web
           contains aliased loads *)
        if w.Web_info.aliased_uses <> [] then add_dummy f index w stats cfg iv;
        false
    | Cost_model.Admit ->
        Cost_model.note_promoted pctx;
        if not (Web_info.has_defs w) then begin
      (* no definitions: load once in the preheader *)
      let live_in =
        match w.Web_info.live_in with
        | Some r -> r
        | None -> bug "web with loads has no live-in and no defs"
      in
      let t = Func.fresh_reg f in
      let load = Func.mk_instr f (Instr.Load { dst = t; src = live_in }) in
      Block.insert_at_end (Func.block f iv.Intervals.preheader) load;
      Occ_index.note index iv.Intervals.preheader load;
      stats.loads_inserted <- stats.loads_inserted + 1;
      List.iter
        (fun ((site : Web_info.ref_site), _) ->
          match site.instr.Instr.op with
          | Instr.Load { dst; _ } ->
              site.instr.Instr.op <- Instr.Copy { dst; src = Instr.Reg t };
              stats.loads_replaced <- stats.loads_replaced + 1
          | _ -> bug "load reference is not a load")
        w.Web_info.loads;
      stats.webs_promoted <- stats.webs_promoted + 1;
      stats.webs_promoted_no_defs <- stats.webs_promoted_no_defs + 1;
      if w.Web_info.aliased_uses <> [] then add_dummy f index w stats cfg iv;
      false
    end
    else begin
      let ctx =
        {
          f;
          index;
          w;
          stats;
          vr_map = Hashtbl.create 8;
          leaf_loads = Hashtbl.create 8;
          phi_of =
            (let h = Hashtbl.create 8 in
             List.iter
               (fun ((s : Web_info.ref_site), dst) ->
                 Hashtbl.replace h dst (s.instr, s.bid))
               w.Web_info.phis;
             h);
        }
      in
      init_vr_map ctx;
      insert_loads_at_phi_leaves ctx d.la;
      replace_loads_by_copies ctx;
      if d.remove_stores then begin
        let cloned1 = insert_stores ctx d.sa in
        let cloned2 =
          Rp_obs.Trace.with_span "promote.tails" @@ fun () ->
          insert_stores_at_tails ctx dom iv
        in
        let cloned = Resource.ResSet.union cloned1 cloned2 in
        Incremental.update_for_cloned_resources ~engine:cfg.engine ~index f
          ~cloned_res:cloned;
        (* the updater runs only when there are clones to wire up *)
        let updated = not (Resource.ResSet.is_empty cloned) in
        if updated then on_edit index;
        (Rp_obs.Trace.with_span "promote.deadstores" @@ fun () ->
         delete_dead_stores ctx ~updated);
        stats.webs_store_removal <- stats.webs_store_removal + 1
      end;
      stats.webs_promoted <- stats.webs_promoted + 1;
      (* "if there are aliased loads in web, add a dummy aliased load
         in the preheader that aliases the live-in resource" *)
      if w.Web_info.aliased_uses <> [] then add_dummy f index w stats cfg iv;
      d.remove_stores
    end
  end

(* One-web entry point for callers (the loop-based baseline) that carve
   out their own web sets. *)
let promote_in_web (cfg : config) (f : Func.t) (dom : Dom.t)
    (iv : Intervals.t) (stats : stats) (resources : Resource.ResSet.t) : unit
    =
  ignore
    (promote_web cfg ~freq:(Func.freq_snapshot f) ~index:(Occ_index.build f)
       ~on_edit:ignore f dom iv stats None
       (Web_info.compute f iv resources))

(* cleanup (Figure 2): remove the dummy aliased loads inside the
   interval, i.e. the summaries its children left in their preheaders,
   which have served their purpose now that this interval is done. *)
let cleanup_dummies (f : Func.t) (blocks : Ids.IntSet.t) =
  Ids.IntSet.iter
    (fun bid ->
      let b = Func.block f bid in
      Iseq.filter_in_place
        (fun (i : Instr.t) -> not (Instr.is_dummy i))
        b.body)
    blocks

let promote_in_interval ?(arena = Webs.arena ()) ?index ?(on_edit = ignore)
    (cfg : config) (f : Func.t) (tab : Resource.table) (stats : stats)
    (iv : Intervals.t) : unit =
  (* children were already processed (the traversal is bottom-up) *)
  Rp_obs.Trace.with_span "promote.interval"
    ~attrs:
      [
        ("func", f.Func.fname);
        ("interval", string_of_int iv.Intervals.id);
        ("depth", string_of_int iv.Intervals.depth);
        ("blocks", string_of_int (Ids.IntSet.cardinal iv.Intervals.blocks));
      ]
  @@ fun () ->
  let dom = Dom.compute_cached f in
  let freq = Func.freq_snapshot f in
  let index = match index with Some i -> i | None -> Occ_index.build f in
  (* dense resource ids for the interval scan; it runs before this
     interval creates any version *)
  let ids = Res_ids.of_func f in
  (* One interval scan builds every web and its reference sets.
     Promoting a web only touches its own resources (plus fresh clones
     outside any web) — except when the store-removal path runs the
     incremental updater, which renames uses and sweeps dead definitions
     across every version of the variable.  Track those bases and rescan
     for their later webs instead of using the stale precomputation. *)
  let infos =
    Rp_obs.Trace.with_span "promote.webinfo" @@ fun () ->
    Web_info.of_interval ~ids ~arena tab f iv
  in
  Rp_obs.Trace.add_attr "webs" (string_of_int (List.length infos));
  (* With a register budget: measure the interval's pressure (preheader
     included — that is where the promoted value's load lands) and
     order the webs by descending frequency-weighted profit, so the
     budget is spent on the best candidates.  The profit used as the
     sort key comes from the initial web infos; a later same-base
     rescan can shift it slightly, but the admission test below always
     re-evaluates against the fresh info.  Without a budget the
     original scan order is kept — the paper's behaviour, and zero
     analysis overhead. *)
  let pctx =
    match cfg.cost.Cost_model.regs with
    | None -> None
    | Some budget ->
        let p =
          Rp_obs.Trace.with_span "promote.pressure" @@ fun () ->
          Pressure.compute f
        in
        let scope =
          Ids.IntSet.add iv.Intervals.preheader iv.Intervals.blocks
        in
        Some
          (Cost_model.make_ctx ~budget
             ~interval_pressure:(Pressure.max_over p scope))
  in
  let keyed_profit (w : Web_info.t) =
    if w.Web_info.multiple_live_in then neg_infinity
    else
      (Cost_model.evaluate ~allow_store_removal:cfg.allow_store_removal ~freq
         f dom iv w)
        .Cost_model.profit
  in
  let infos =
    match pctx with
    | None -> infos
    | Some _ ->
        List.map (fun (w : Web_info.t) -> (w, keyed_profit w)) infos
        |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
        |> List.map fst
  in
  (* Variables the updater rewrote since their webs' infos were taken.
     The next web of such a variable rescans the interval once for every
     web of it still to come: the interval's numbering still covers their
     resources (the versions created since belong to no web), and until
     the updater runs again nothing else touches them. *)
  let infos = Array.of_list infos in
  let rewritten_bases : (Ids.vid, unit) Hashtbl.t = Hashtbl.create 8 in
  let refresh base ~from =
    Hashtbl.remove rewritten_bases base;
    let later = ref [] in
    for j = Array.length infos - 1 downto from do
      if infos.(j).Web_info.base = base then later := j :: !later
    done;
    List.iter2
      (fun j w -> infos.(j) <- w)
      !later
      (Web_info.rescan index iv (List.map (fun j -> infos.(j)) !later))
  in
  Array.iteri
    (fun k (w : Web_info.t) ->
      if Hashtbl.mem rewritten_bases w.Web_info.base then
        refresh w.Web_info.base ~from:k;
      let w = infos.(k) in
      if promote_web cfg ~freq ~index ~on_edit f dom iv stats pctx w then
        Hashtbl.replace rewritten_bases w.Web_info.base ();
      on_edit index)
    infos;
  cleanup_dummies f iv.Intervals.blocks

(* Promote one function.  Expects [f] normalised (no critical edges,
   dedicated preheaders/tails) and in SSA form, with a profile. *)
let promote_function ?(cfg = default_config) ?on_edit (f : Func.t)
    (tab : Resource.table) (tree : Intervals.tree) : stats =
  Rp_obs.Trace.with_span "promote.function" ~attrs:[ ("func", f.Func.fname) ]
  @@ fun () ->
  let stats = empty_stats () in
  (* scratch arrays over resource ids, shared by the function's
     intervals, and the occurrence index every interval keeps current *)
  let arena = Webs.arena () and index = Occ_index.build f in
  (* the root interval's [cleanup_dummies] covers the entry block, where
     the root's own dummies sit, so no dummy outlives the last interval *)
  List.iter
    (promote_in_interval ~arena ~index ?on_edit cfg f tab stats)
    tree.Intervals.all;
  List.iter
    (fun (k, v) -> if v <> 0 then Rp_obs.Metrics.add ("promote." ^ k) v)
    (to_alist stats);
  stats
