(* Dominator tree via the Cooper–Harvey–Kennedy "engineered" iterative
   algorithm.  Near-linear in practice and simple enough to trust, which
   matters because the promotion pass and the incremental SSA updater
   both lean on dominance queries.

   The result also precomputes preorder intervals on the dominator tree
   so that [dominates] is O(1). *)

open Rp_ir

type t = {
  idom : int array;  (** immediate dominator; entry maps to itself; -1 = dead *)
  children : int list array;  (** dominator tree children *)
  entry : Ids.bid;
  tin : int array;  (** DFS entry time on the dominator tree *)
  tout : int array;  (** DFS exit time *)
  rpo_num : int array;  (** reverse-postorder number, -1 for unreachable *)
  order : Ids.bid list;  (** reverse postorder of live blocks *)
  mutable derived : Func.cache_entry option;
      (** one analysis computed from this tree and the CFG it was built
          on (the dominance frontier), kept with the tree *)
}

let compute (f : Func.t) : t =
  Cfg.recompute_preds f;
  let n = Func.num_blocks f in
  let order = Cfg.rpo f in
  let rpo_num = Array.make n (-1) in
  List.iteri (fun i b -> rpo_num.(b) <- i) order;
  let idom = Array.make n (-1) in
  idom.(f.entry) <- f.entry;
  let intersect b1 b2 =
    let finger1 = ref b1 and finger2 = ref b2 in
    while !finger1 <> !finger2 do
      while rpo_num.(!finger1) > rpo_num.(!finger2) do
        finger1 := idom.(!finger1)
      done;
      while rpo_num.(!finger2) > rpo_num.(!finger1) do
        finger2 := idom.(!finger2)
      done
    done;
    !finger1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> f.entry then begin
          let preds =
            List.filter (fun p -> rpo_num.(p) >= 0) (Func.block f b).Block.preds
          in
          let processed = List.filter (fun p -> idom.(p) <> -1) preds in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      order
  done;
  let children = Array.make n [] in
  List.iter
    (fun b ->
      if b <> f.entry && idom.(b) >= 0 then
        children.(idom.(b)) <- b :: children.(idom.(b)))
    order;
  (* preorder timestamps for O(1) dominance queries *)
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let clock = ref 0 in
  let rec dfs b =
    incr clock;
    tin.(b) <- !clock;
    List.iter dfs children.(b);
    incr clock;
    tout.(b) <- !clock
  in
  dfs f.entry;
  { idom; children; entry = f.entry; tin; tout; rpo_num; order; derived = None }

(* The cached variant lives on the function itself, stamped with the
   CFG generation it was computed at, so repeated incremental SSA
   update batches (and the per-interval walks of the promoter) stop
   rebuilding an unchanged tree.  Storing the cache on [Func.t] rather
   than in a global table keeps it safe under the domain pool — each
   function is owned by exactly one task at a time — and makes hit
   counts independent of scheduling. *)
type Func.cache_entry += Dom_tree of t

let compute_cached (f : Func.t) : t =
  match f.Func.analysis_cache with
  | Some (g, Dom_tree d) when g = f.Func.cfg_gen ->
      Rp_obs.Metrics.incr "analysis.domcache.hits";
      d
  | _ ->
      Rp_obs.Metrics.incr "analysis.domcache.misses";
      let d = compute f in
      f.Func.analysis_cache <- Some (f.Func.cfg_gen, Dom_tree d);
      d

let derived t = t.derived

let set_derived t e = t.derived <- Some e

let entry t = t.entry

let idom t b = if b = t.entry then None else Some t.idom.(b)

let children t b = t.children.(b)

let reachable t b = t.rpo_num.(b) >= 0

(* Does block [a] dominate block [b]?  Reflexive. *)
let dominates t ~(a : Ids.bid) ~(b : Ids.bid) =
  t.tin.(a) <= t.tin.(b) && t.tout.(b) <= t.tout.(a)

let strictly_dominates t ~a ~b = a <> b && dominates t ~a ~b

(* Depth of [b] in the dominator tree (entry has depth 0). *)
let depth t b =
  let rec go b acc = if b = t.entry then acc else go t.idom.(b) (acc + 1) in
  go b 0

(* Least common ancestor in the dominator tree = least common dominator.
   Used to find the preheader of an improper interval (paper 4.1). *)
let least_common_dominator t (bs : Ids.bid list) : Ids.bid =
  let rec lift b k = if k <= 0 then b else lift t.idom.(b) (k - 1) in
  let lca a b =
    let da = depth t a and db = depth t b in
    let a = if da > db then lift a (da - db) else a in
    let b = if db > da then lift b (db - da) else b in
    let rec go a b = if a = b then a else go t.idom.(a) t.idom.(b) in
    go a b
  in
  match bs with
  | [] -> invalid_arg "least_common_dominator: empty"
  | b :: rest -> List.fold_left lca b rest

(* Walk from [b] up to the root, applying [f] at every block (including
   [b] and the entry). *)
let iter_dom_path t b ~f =
  let rec go b =
    f b;
    if b <> t.entry then go t.idom.(b)
  in
  go b
