(* The promotion cost model (paper section 4.3).

   loads_added / stores_added price the compensation code a promotion
   would insert; [evaluate] nets them against the references the
   promotion removes, all weighted by the block execution frequencies
   the pipeline attached; [admit] applies the threshold and — when a
   register budget is set — the pressure gate.

   The pressure gate is deliberately simple: each admitted web
   materialises one value that stays in a register across the interval,
   so predicted pressure is the interval's MAXLIVE before promotion
   plus one per web admitted so far.  Once that reaches the budget,
   further webs of the interval are skipped with [Pressure_saturated].
   MAXLIVE on SSA is exact and linear-time (Bouchez/Darte/Rastello), so
   the promoter can afford to recompute it per interval.  On strict SSA
   K registers suffice exactly when MAXLIVE <= K, so a gate that keeps
   the prediction within K leaves an allocator-priced test (Chaitin's
   spill count on the interference graph) nothing to refuse; DESIGN.md
   records the measurement. *)

open Rp_ir
open Rp_analysis

type t = { min_profit : float; regs : int option }

let paper = { min_profit = 0.0; regs = None }

(* ------------------------------------------------------------------ *)
(* loads_added / stores_added (section 4.3) *)

module PointSet = Set.Make (struct
  type t = Resource.t * Ids.bid

  let compare (r1, b1) (r2, b2) =
    let c = Resource.compare r1 r2 in
    if c <> 0 then c else Int.compare b1 b2
end)

(* Leaves of the web's phis that are not defined by a store of the web:
   a load of each must be inserted at the end of the corresponding
   predecessor block. *)
let loads_added (w : Web_info.t) : PointSet.t =
  List.fold_left
    (fun acc ((site : Web_info.ref_site), _) ->
      List.fold_left
        (fun acc (l, x) ->
          if
            Web_info.mem w x
            && Web_info.is_leaf w x
            && not (Web_info.store_defined w x)
          then PointSet.add (x, l) acc
          else acc)
        acc
        (Instr.mphi_srcs site.instr.Instr.op))
    PointSet.empty w.Web_info.phis

(* The phis an aliased load transitively depends on, as marks over the
   web's slots: backward closure from the aliased loads' used resources
   through phi operands. *)
let needed_phis (w : Web_info.t) : Bytes.t =
  let n = Web_info.slots w in
  let phi_of = Array.make n [] and needed = Bytes.make n '\000' in
  List.iter
    (fun ((site : Web_info.ref_site), dst) ->
      phi_of.(Web_info.slot w dst) <- Instr.mphi_srcs site.instr.Instr.op)
    w.Web_info.phis;
  let rec need r =
    if Web_info.phi_defined w r then begin
      let k = Web_info.slot w r in
      if Bytes.get needed k = '\000' then begin
        Bytes.set needed k '\001';
        List.iter (fun (_, x) -> need x) phi_of.(k)
      end
    end
  in
  List.iter (fun (_, r) -> need r) w.Web_info.aliased_uses;
  needed

let dependent_phis (w : Web_info.t) : Resource.ResSet.t =
  let needed = needed_phis w in
  List.filter
    (fun r -> Bytes.get needed (Web_info.slot w r) <> '\000')
    (Web_info.members w)
  |> Resource.ResSet.of_list

(* One insertion point: the block end, or the instruction (by id). *)
let same_point p q =
  match (p, q) with
  | Web_info.At_block_end b1, Web_info.At_block_end b2 -> b1 = b2
  | Web_info.Before_instr (b1, i1), Web_info.Before_instr (b2, i2) ->
      b1 = b2 && i1.Instr.iid = i2.Instr.iid
  | Web_info.At_block_end _, Web_info.Before_instr _
  | Web_info.Before_instr _, Web_info.At_block_end _ ->
      false

(* stores_added: a pair (x, point) means "insert a store of x before
   point".  Set 1: store-defined operands of phis an aliased load
   depends on, at the end of the operand's predecessor.  Set 2: stores
   used directly by an aliased load, before that instruction.  Then the
   dominance pruning from the paper. *)
let stores_added (f : Func.t) (dom : Dom.t) (w : Web_info.t) :
    (Resource.t * Web_info.point) list =
  let needed = needed_phis w in
  let set1 =
    List.fold_left
      (fun acc ((site : Web_info.ref_site), dst) ->
        if Bytes.get needed (Web_info.slot w dst) <> '\000' then
          List.fold_left
            (fun acc (l, x) ->
              if Web_info.store_defined w x then
                (x, Web_info.At_block_end l) :: acc
              else acc)
            acc
            (Instr.mphi_srcs site.instr.Instr.op)
        else acc)
      [] w.Web_info.phis
  in
  let set2 =
    List.filter_map
      (fun ((site : Web_info.ref_site), r) ->
        if Web_info.store_defined w r then
          Some (r, Web_info.Before_instr (site.bid, site.instr))
        else None)
      w.Web_info.aliased_uses
  in
  (* dedupe *)
  let all =
    List.sort_uniq
      (fun (r1, p1) (r2, p2) ->
        let c = Resource.compare r1 r2 in
        if c <> 0 then c
        else
          match (p1, p2) with
          | Web_info.At_block_end b1, Web_info.At_block_end b2 ->
              Int.compare b1 b2
          | Web_info.Before_instr (_, i1), Web_info.Before_instr (_, i2) ->
              Int.compare i1.Instr.iid i2.Instr.iid
          | Web_info.At_block_end _, Web_info.Before_instr _ -> -1
          | Web_info.Before_instr _, Web_info.At_block_end _ -> 1)
      (set1 @ set2)
  in
  (* positions for same-block comparisons, indexed lazily: only the
     handful of blocks that actually appear in [all] get scanned *)
  let pos_in_block : (Ids.iid, int) Hashtbl.t = Hashtbl.create 32 in
  let indexed_blocks : (Ids.bid, unit) Hashtbl.t = Hashtbl.create 8 in
  let ensure_indexed bid =
    if not (Hashtbl.mem indexed_blocks bid) then begin
      Hashtbl.add indexed_blocks bid ();
      Iseq.iteri
        (fun k (i : Instr.t) -> Hashtbl.replace pos_in_block i.iid k)
        (Func.block f bid).Block.body
    end
  in
  let point_pos = function
    | Web_info.At_block_end _ -> max_int
    | Web_info.Before_instr (bid, i) -> (
        ensure_indexed bid;
        match Hashtbl.find_opt pos_in_block i.Instr.iid with
        | Some p -> p
        | None -> max_int)
  in
  let dominates p1 p2 =
    let b1 = Web_info.point_bid p1 and b2 = Web_info.point_bid p2 in
    if b1 = b2 then point_pos p1 < point_pos p2
    else Dom.strictly_dominates dom ~a:b1 ~b:b2
  in
  List.filter
    (fun (x, p) ->
      not
        (List.exists
           (fun (x', p') ->
             Resource.equal x x' && (not (same_point p' p)) && dominates p' p)
           all))
    all

(* ------------------------------------------------------------------ *)
(* Pricing *)

type eval = {
  profit : float;
  effective : bool;
  remove_stores : bool;
  la : PointSet.t;
  sa : (Resource.t * Web_info.point) list;
}

let evaluate ~(allow_store_removal : bool) ~(freq : float array) (f : Func.t)
    (dom : Dom.t) (iv : Intervals.t) (w : Web_info.t) : eval =
  let freq bid = freq.(bid) in
  if not (Web_info.has_defs w) then begin
    (* one load in the preheader replaces every load of the web *)
    let benefit =
      List.fold_left
        (fun acc ((s : Web_info.ref_site), _) -> acc +. freq s.bid)
        0.0 w.Web_info.loads
    in
    let cost = freq iv.Intervals.preheader in
    {
      profit = benefit -. cost;
      effective = w.Web_info.loads <> [];
      remove_stores = false;
      la = PointSet.empty;
      sa = [];
    }
  end
  else begin
    let la = loads_added w in
    (* both halves of stores_added start from store-defined resources:
       a web without singleton stores adds none *)
    let sa = if w.Web_info.stores = [] then [] else stores_added f dom w in
    let removable_loads =
      List.filter
        (fun (_, r) -> Web_info.store_defined w r || Web_info.phi_defined w r)
        w.Web_info.loads
    in
    let load_benefit =
      List.fold_left
        (fun acc ((s : Web_info.ref_site), _) -> acc +. freq s.bid)
        0.0 removable_loads
    in
    let load_cost = PointSet.fold (fun (_, l) acc -> acc +. freq l) la 0.0 in
    let store_benefit =
      List.fold_left
        (fun acc ((s : Web_info.ref_site), _) -> acc +. freq s.bid)
        0.0 w.Web_info.stores
    in
    let store_cost =
      List.fold_left
        (fun acc (_, p) -> acc +. freq (Web_info.point_bid p))
        0.0 sa
    in
    (* tail stores also cost; count them for honesty even though the
       paper's formula omits them (they sit on cold exit edges) *)
    let remove_stores =
      allow_store_removal
      && w.Web_info.stores <> []
      && store_benefit -. store_cost > 0.0
    in
    let profit =
      load_benefit -. load_cost
      +. (if remove_stores then store_benefit -. store_cost else 0.0)
    in
    {
      profit;
      effective = removable_loads <> [] || remove_stores;
      remove_stores;
      la;
      sa;
    }
  end

(* ------------------------------------------------------------------ *)
(* Admission *)

type pressure_ctx = {
  budget : int;
  interval_pressure : int;
  mutable growth : int;
}

let make_ctx ~budget ~interval_pressure =
  { budget; interval_pressure; growth = 0 }

type skip_reason = Not_profitable | Pressure_saturated

let skip_reason_to_string = function
  | Not_profitable -> "not_profitable"
  | Pressure_saturated -> "pressure_saturated"

type verdict = Admit | Skip of skip_reason

let admit (t : t) (e : eval) (ctx : pressure_ctx option) : verdict =
  if not (e.effective && e.profit >= t.min_profit) then Skip Not_profitable
  else
    match ctx with
    | None -> Admit
    | Some c ->
        if c.interval_pressure + c.growth + 1 <= c.budget then Admit
        else Skip Pressure_saturated

let note_promoted (ctx : pressure_ctx option) : unit =
  match ctx with Some c -> c.growth <- c.growth + 1 | None -> ()
