(* Physical slot assignment on SSA form.

   On strict SSA the interference graph is chordal and a greedy
   assignment that visits definitions in dominance order needs at most
   MAXLIVE colors (Bouchez, Darte & Rastello), whichever free color
   each definition takes, so no graph is built: the dominator tree is
   walked in preorder, each block starting with the slots of its
   live-in registers occupied (each defined in a strict dominator);
   a register's slot frees at its last use, and the definition then
   takes a free one.  The choice among free slots serves the moves:

   - [dst = src] with a register source shares the source's slot: in
     SSA both hold one value wherever both are live.  A slot counts
     the live registers it holds and frees with the last.
   - A phi target and a source that dies into it are partners; sharing
     a slot makes the edge's move vanish.  A block's phi targets share
     out their partners' free slots hottest edge first (the function's
     edge frequencies), so a source feeding two targets goes to the
     hotter one.  A definition flowing into a target not assigned yet
     (a back edge) looks through it to the targets it flows into.
   - Without a free partner slot, a definition keeps off the slots of
     the other targets of the phis it feeds (taking one can close a
     cycle in that edge's parallel copy) and the slots loop-header
     targets want back for their back-edge sources, taking a fresh
     slot instead while fewer than MAXLIVE are in use.
   - Any other definition that is never read takes no slot ([-1]).

   Out-of-SSA moves go at the end of each predecessor.  Without
   critical edges a predecessor of a phi block [b] either jumps to [b]
   only — all live at its end is live into [b] or a phi source, so the
   targets' slots are free there but for the parallel copy — or also
   branches elsewhere, and then it is [b]'s only predecessor and the
   targets keep off the slots of all live at its end. *)

open Rp_ir
open Rp_analysis

type t = { slot_of : int array; nslots : int }

let assign (f : Func.t) : t =
  let live = Liveness.compute f in
  let dom = Dom.compute f in
  let n = f.Func.next_reg in
  (* backward over every block: its instructions with the uses they
     read last and whether their definition is read at all, the
     registers live at the top of its body, and MAXLIVE *)
  let walks = Array.make (Func.num_blocks f) ([], Bitset.empty ()) in
  let maxlive = ref 0 in
  Func.iter_blocks
    (fun b ->
      let live_now = Bitset.copy (Liveness.live_out live b.Block.bid) in
      List.iter (Bitset.add live_now) (Block.term_uses b);
      maxlive := max !maxlive (Bitset.cardinal live_now);
      let steps = ref [] in
      Iseq.iter_rev
        (fun (i : Instr.t) ->
          let def_live =
            match Instr.reg_def i.Instr.op with
            | Some d ->
                let l = Bitset.mem live_now d in
                Bitset.remove live_now d;
                l
            | None -> false
          in
          let dying =
            List.filter
              (fun r ->
                (not (Bitset.mem live_now r))
                && (Bitset.add live_now r;
                    true))
              (Instr.reg_uses i.Instr.op)
          in
          maxlive := max !maxlive (Bitset.cardinal live_now);
          steps := (i, dying, def_live) :: !steps)
        b.Block.body;
      walks.(b.Block.bid) <- (!steps, live_now);
      let top = Bitset.copy live_now in
      ignore (Bitset.union_into ~into:top (Liveness.phi_defs b));
      maxlive := max !maxlive (Bitset.cardinal top))
    f;
  let slot_of = Array.make n (-1) in
  let nslots = ref 0 in
  (* per slot: the live registers it holds at the current point, and
     whether the phi targets being placed must keep off it *)
  let occ = Array.make (n + 1) 0 and banned = Array.make (n + 1) false in
  let hold s = if s >= 0 then occ.(s) <- occ.(s) + 1 in
  let release r =
    let s = slot_of.(r) in
    if s >= 0 then occ.(s) <- occ.(s) - 1
  in
  let free s = s >= 0 && occ.(s) = 0 && not banned.(s) in
  let take r s =
    slot_of.(r) <- s;
    hold s
  in
  (* [feeds.(r)]: the phi targets [r] is a source of and dies into,
     each with the frequency of the edge that carries it and all the
     targets of its block.  (A source still live past the phi lives
     beside its target, so the two cannot share a slot.) *)
  let feeds = Array.make n [] and phi_srcs = Array.make n [] in
  let edge p b = Func.edge_freq f ~src:p ~dst:b.Block.bid in
  Func.iter_blocks
    (fun b ->
      let dsts = Bitset.elements (Liveness.phi_defs b) in
      let live_in = Liveness.live_in live b.Block.bid in
      Iseq.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Rphi { dst; srcs } ->
              phi_srcs.(dst) <- List.map snd srcs;
              List.iter
                (fun (p, r) ->
                  if not (Bitset.mem live_in r) then
                    feeds.(r) <- (dst, edge p b, dsts) :: feeds.(r))
                srcs
          | _ -> ())
        b.Block.phis)
    f;
  (* the partners [r] flows into, each with the frequency of the edge
     whose move vanishes when the two share a slot; a target not yet
     assigned stands for the targets it flows into in turn (the least
     frequency along the way), up to a few phis deep *)
  let rec targets ?(depth = 8) r =
    List.concat_map
      (fun (t, w, _) ->
        if slot_of.(t) >= 0 || depth = 0 then [ (t, w) ]
        else
          List.map
            (fun (u, w') -> (u, min w w'))
            (targets ~depth:(depth - 1) t))
      feeds.(r)
  in
  let hottest_first l =
    List.stable_sort (fun (_, a) (_, b) -> compare b a) l
  in
  (* whether [r] may take [s] without closing a cycle: [s] is no slot
     of another target of the phis [r] feeds *)
  let clear r s =
    let own = List.map (fun (t, _, _) -> t) feeds.(r) in
    not
      (List.exists
         (fun (_, _, dsts) ->
           List.exists (fun t -> slot_of.(t) = s && not (List.mem t own)) dsts)
         feeds.(r))
  in
  (* [held s]: a phi target in slot [s] has a source not assigned yet *)
  let held_for = Array.make (n + 1) (-1) in
  let held s =
    let d = held_for.(s) in
    d >= 0 && List.exists (fun r -> slot_of.(r) < 0) phi_srcs.(d)
  in
  let rec scan ok s =
    if s = !nslots then None
    else if free s && ok s then Some s
    else scan ok (s + 1)
  in
  let fresh () =
    incr nslots;
    !nslots - 1
  in
  (* the slot of the hottest free partner; else, in this order, a free
     slot clear of rivals and not held, a fresh slot below MAXLIVE, any
     free slot, a fresh slot *)
  let pick r partners =
    match
      List.find_opt
        (fun (p, _) -> free slot_of.(p) && clear r slot_of.(p))
        (hottest_first partners)
    with
    | Some (p, _) -> slot_of.(p)
    | None -> (
        match scan (fun s -> clear r s && not (held s)) 0 with
        | Some s -> s
        | None when !nslots < !maxlive -> fresh ()
        | None -> (
            match scan (fun _ -> true) 0 with
            | Some s -> s
            | None -> fresh ()))
  in
  (* parameters and any other entry live-in: defined in parallel at
     function entry, before the entry block runs *)
  Bitset.iter
    (fun r -> take r (pick r []))
    (Liveness.live_in live f.Func.entry);
  let rec visit bid =
    let b = Func.block f bid in
    let steps, live_now = walks.(bid) in
    Array.fill occ 0 !nslots 0;
    let phi_defs = Liveness.phi_defs b in
    Bitset.iter
      (fun r -> if not (Bitset.mem phi_defs r) then hold slot_of.(r))
      live_now;
    let ban r = if slot_of.(r) >= 0 then banned.(slot_of.(r)) <- true in
    if not (Iseq.is_empty b.Block.phis) then
      List.iter
        (fun p ->
          let pb = Func.block f p in
          if List.compare_length_with (Block.succs pb) 1 > 0 then begin
            Bitset.iter ban (Liveness.live_out live p);
            List.iter ban (Block.term_uses pb)
          end)
        b.Block.preds;
    (* the read phi targets share out their partners' slots hottest
       edge first; the rest then pick as any definition *)
    let dsts =
      Iseq.fold_right
        (fun (i : Instr.t) acc ->
          match i.Instr.op with
          | Instr.Rphi { dst; srcs } when Bitset.mem live_now dst ->
              (dst, List.map (fun (p, r) -> (r, edge p b)) srcs @ targets dst)
              :: acc
          | _ -> acc)
        b.Block.phis []
    in
    List.concat_map
      (fun (d, ps) -> List.map (fun (p, w) -> ((d, p), w)) ps)
      dsts
    |> hottest_first
    |> List.iter (fun ((d, p), _) ->
           let s = slot_of.(p) in
           if slot_of.(d) < 0 && free s && clear d s then take d s);
    List.iter
      (fun (d, _) ->
        if slot_of.(d) < 0 then take d (pick d []);
        held_for.(slot_of.(d)) <- d)
      dsts;
    Array.fill banned 0 !nslots false;
    List.iter
      (fun ((i : Instr.t), dying, def_live) ->
        List.iter release dying;
        match (i.Instr.op, Instr.reg_def i.Instr.op) with
        | Instr.Copy { dst; src = Instr.Reg s }, _ when slot_of.(s) >= 0 ->
            slot_of.(dst) <- slot_of.(s);
            if def_live then hold slot_of.(dst)
        | _, Some d when def_live -> take d (pick d (targets d))
        | _ -> ())
      steps;
    List.iter visit (Dom.children dom bid)
  in
  visit f.Func.entry;
  { slot_of; nslots = !nslots }
