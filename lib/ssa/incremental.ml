(* Incremental SSA update for cloned definitions (paper section 4.5,
   Figure 11).

   When register promotion inserts stores cloned from existing
   definitions of a variable, SSA form must be repaired: new phi
   instructions placed, uses renamed to the new reaching definitions,
   and definitions made dead by the renaming deleted.  The paper's
   algorithm handles all cloned definitions in one batch:

   Step 1  collect the definition blocks of the old and cloned
           resources, compute their iterated dominance frontier, and
           place a candidate phi at the head of each IDF block: a
           version and a definition for renaming, not yet an
           instruction;
   Step 2  rename every use of an old resource to the definition that
           reaches it, found by walking up the dominator tree
           (computeReachingDef);
   Step 3  propagate liveness into the candidates with a worklist,
           building each live one with its source operands from the
           reaching definition at the end of each predecessor;
   Step 4  delete every definition (old store, cloned store, or placed
           phi) whose resource ends up with no uses, cascading through
           phi operands, so the transformation leaves no dead code.

   A candidate step 3 never reaches is never built.  That is the same
   program as placing it and deleting it unused: nothing refers to its
   version, so removing the unused definition preserves meaning. Its
   version is still reserved in step 1, so version numbers do not
   depend on which candidates turn out live.

   The IDF engine is pluggable — Cytron's iterated dominance frontier
   or the Sreedhar–Gao DJ-graph algorithm the paper cites [SrG95] — so
   the compile-time ablation can compare them.

   Deleting a dead store is sound in this IR because every observation
   of memory is an explicit use: loads, aliased loads (calls, pointer
   loads), and the [Exit_use] placed at each return.  A store whose
   resource has no use is therefore unobservable.  Definitions that are
   side effects of aliased instructions (call / pointer-store may-defs)
   are never deleted, only singleton stores and phis.

   The caller passes the cloned resources; the old set is completed
   internally to every resource of the same base variable occurring in
   the function, which is what the paper's oldResSet ("resources
   originally renamed from the same variable") amounts to. *)

open Rp_ir
open Rp_analysis

type engine = Cytron | Sreedhar_gao

let engine_to_string = function
  | Cytron -> "cytron"
  | Sreedhar_gao -> "sreedhar-gao"

let engine_of_string = function
  | "cytron" -> Some Cytron
  | "sreedhar-gao" | "sg" -> Some Sreedhar_gao
  | _ -> None

(* Positions within a block: the entry definition of a variable is at
   -infinity (represented -max_int), phis occupy negative positions in
   list order so a later phi shadows an earlier one, body instructions
   count 0,1,2,...  A virtual use at the end of a block has position
   max_int.  Positions are taken during the scans that need them. *)

type def_info = { dpos : int; dres : Resource.t }

type ctx = {
  dom : Dom.t;
  block_defs : def_info list array;
      (** per block id: defs of the variable, sorted by decreasing pos *)
}

let add_block_def ctx bid info =
  let rec ins = function
    | [] -> [ info ]
    | x :: rest when x.dpos <= info.dpos -> info :: x :: rest
    | x :: rest -> x :: ins rest
  in
  ctx.block_defs.(bid) <- ins ctx.block_defs.(bid)

let compute_reaching_def ctx ~(bid : Ids.bid) ~(pos : int) :
    Resource.t option =
  let find_in b ~before =
    match List.find_opt (fun d -> d.dpos < before) ctx.block_defs.(b) with
    | Some d -> Some d.dres
    | None -> None
  in
  match find_in bid ~before:pos with
  | Some r -> Some r
  | None ->
      let rec walk b =
        match Dom.idom ctx.dom b with
        | None -> None
        | Some p -> (
            match find_in p ~before:max_int with
            | Some r -> Some r
            | None -> walk p)
      in
      walk bid

(* The role of each version of the updated variable.  Every resource
   the updater touches is a version of one variable, so per-resource
   facts are arrays indexed by the version number. *)
let absent = 0 (* not in the function, or another variable *)

let old = 1

let cloned = 2

let placed = 3

(* [protect] lists resources whose definitions must survive step 4 even
   when they currently have no uses — the per-definition baseline
   updater processes cloned definitions one at a time and must not let
   an early call garbage-collect the definitions a later call is about
   to wire up. *)
let update_for_cloned_resources ?(engine = Cytron)
    ?(protect = Resource.ResSet.empty) ?index (f : Func.t)
    ~(cloned_res : Resource.ResSet.t) : unit =
  if not (Resource.ResSet.is_empty cloned_res) then begin
    Rp_obs.Trace.with_span "ssa.incremental_update"
      ~attrs:
        [
          ("func", f.Func.fname);
          ("engine", engine_to_string engine);
          ("cloned", string_of_int (Resource.ResSet.cardinal cloned_res));
        ]
    @@ fun () ->
    Rp_obs.Metrics.incr "ssa.update.runs";
    Rp_obs.Metrics.add "ssa.update.cloned_defs"
      (Resource.ResSet.cardinal cloned_res);
    (* promotion issues one update batch per promoted web, and none of
       them changes the CFG shape — the generation-stamped cache makes
       every batch after the first reuse the same tree *)
    let dom = Dom.compute_cached f in
    let index =
      match index with Some index -> index | None -> Occ_index.build f
    in
    let base =
      match Resource.ResSet.choose_opt cloned_res with
      | Some r -> r.Resource.base
      | None -> assert false
    in
    assert (
      Resource.ResSet.for_all
        (fun (r : Resource.t) -> r.base = base)
        cloned_res);
    let top () =
      match Hashtbl.find_opt f.Func.mver base with Some v -> v | None -> 0
    in
    let top0 = top () in
    (* a version past [mver] did not come from [Func.fresh_ver]: refuse
       it rather than let it share another version's slot *)
    let ver_of (r : Resource.t) =
      if r.ver < 0 || r.ver > top0 then
        invalid_arg
          (Format.asprintf "Incremental.update: %a is past the variable's \
                            last version"
             Resource.pp_raw r)
      else r.ver
    in
    (* An instruction's position is its rank among the variable's
       entries in its block: the index lists them in block order, and
       positions are only compared within one block. *)
    let iter_ranked fn =
      let cur = ref (-1) and rank = ref 0 in
      Occ_index.iter index base (fun bid i ~defs ~uses ->
          if bid <> !cur then begin
            cur := bid;
            rank := 0
          end
          else incr rank;
          fn bid !rank i ~defs ~uses)
    in
    (* per-block def lists of every old, cloned and placed resource *)
    let ctx = { dom; block_defs = Array.make (Func.num_blocks f) [] } in
    (* complete the old set — every resource of this variable in [f] —
       note the block defining each version (-1: entry), and enter each
       definition in its block's list *)
    let kind = Array.make (top0 + 1) absent in
    let def_block = Array.make (top0 + 1) (-1) in
    Resource.ResSet.iter (fun r -> kind.(ver_of r) <- cloned) cloned_res;
    let note (r : Resource.t) =
      if r.base = base then begin
        let v = ver_of r in
        if kind.(v) = absent then kind.(v) <- old
      end
    in
    iter_ranked (fun bid pos i ~defs ~uses ->
        List.iter
          (fun (r : Resource.t) ->
            note r;
            def_block.(r.ver) <- bid;
            add_block_def ctx bid { dpos = pos; dres = r })
          defs;
        List.iter note uses;
        List.iter (fun (_, r) -> note r) (Instr.mphi_srcs i.op));
    (* the entry definition, if this variable has one: only an old
       resource can be entry-defined *)
    for v = 0 to top0 do
      if kind.(v) = old && def_block.(v) < 0 then
        add_block_def ctx f.entry
          { dpos = -max_int; dres = { Resource.base; ver = v } }
    done;
    (* --- Step 1: place phis at the IDF of all definition blocks --- *)
    let init_def_bbs = Bitset.empty () in
    Array.iteri
      (fun v k ->
        if k <> absent then
          Bitset.add init_def_bbs
            (if def_block.(v) < 0 then f.entry else def_block.(v)))
      kind;
    let idf_set =
      match engine with
      | Cytron ->
          Domfront.iterated (Domfront.cached f dom) init_def_bbs
      | Sreedhar_gao ->
          let dj = Djgraph.build f dom in
          Djgraph.idf dj init_def_bbs
    in
    (* each IDF block's candidate: its version, reserved in block order;
       step 3 builds the instruction if the candidate is live *)
    let candidates =
      Bitset.fold (fun bid acc -> (bid, Func.fresh_ver f base) :: acc) idf_set []
    in
    Rp_obs.Trace.add_attr "phis_placed"
      (string_of_int (Bitset.cardinal idf_set));
    Rp_obs.Metrics.add "ssa.update.phis_placed" (Bitset.cardinal idf_set);
    (* per-version tables over every version that now exists *)
    let nv = top () + 1 in
    let kind =
      let k = Array.make nv absent in
      Array.blit kind 0 k 0 (top0 + 1);
      k
    in
    let kind_of (r : Resource.t) =
      if r.base = base && r.ver >= 0 && r.ver < nv then kind.(r.ver)
      else absent
    in
    let placed_bid = Array.make nv (-1) in
    (* a candidate defines its version at the head of its block: after
       the entry definition, before every instruction of the block, so
       an existing phi of the same variable there shadows it (the
       paper's "inserted redundant phi", which then stays unbuilt) *)
    List.iter
      (fun (bid, (dst : Resource.t)) ->
        kind.(dst.ver) <- placed;
        placed_bid.(dst.ver) <- bid;
        add_block_def ctx bid { dpos = -1; dres = dst })
      candidates;
    (* Step 4 counts the uses each version has once the update is done,
       and lists its deletable definitions (singleton stores and phis of
       an old, cloned or placed resource).  Steps 2 and 3 fill both as
       they go: step 2 visits every instruction of the variable and
       knows its final uses, step 3 builds the only new ones. *)
    let counts = Array.make nv 0 in
    let bump r =
      if kind_of r <> absent then counts.(r.ver) <- counts.(r.ver) + 1
    in
    let defs = Array.make nv [] in
    let deletable b (i : Instr.t) (dst : Resource.t) =
      if kind_of dst <> absent then defs.(dst.ver) <- (b, i) :: defs.(dst.ver)
    in
    (* --- Step 2: rename uses of old resources --- *)
    let phi_work : Resource.t Queue.t = Queue.create () in
    let in_work = Array.make nv false in
    let enqueue_if_placed_phi (r : Resource.t) =
      if kind_of r = placed && not in_work.(r.ver) then begin
        in_work.(r.ver) <- true;
        Queue.add r phi_work
      end
    in
    let reach ~bid ~pos (r : Resource.t) =
      match compute_reaching_def ctx ~bid ~pos with
      | Some rd ->
          enqueue_if_placed_phi rd;
          rd
      | None ->
          (* cannot happen on a path that could observe the value: the
             pre-update SSA form was valid, so some definition (at
             minimum the entry version) reaches every real use *)
          r
    in
    let is_old r = kind_of r = old in
    (* does renaming give this use another definition? *)
    let moves ~bid ~pos r =
      is_old r && not (Resource.equal (reach ~bid ~pos r) r)
    in
    (* Only an instruction where some use of an old resource gets another
       reaching definition is rewritten: the others keep their opcode,
       and their block its stamp.  [reach] is asked again for the uses
       the test already asked about; it answers the same. *)
    iter_ranked (fun bid pos (i : Instr.t) ~defs:_ ~uses ->
        let b = Func.block f bid in
        match i.op with
        | Instr.Mphi { dst; srcs } ->
            (* phi-source uses of pre-existing phis: virtual use at the
               end of the predecessor *)
            let srcs =
              if List.exists (fun (p, r) -> moves ~bid:p ~pos:max_int r) srcs
              then begin
                let srcs =
                  List.map
                    (fun (p, r) ->
                      if is_old r then (p, reach ~bid:p ~pos:max_int r)
                      else (p, r))
                    srcs
                in
                Block.set_op b i (Instr.Mphi { dst; srcs });
                srcs
              end
              else srcs
            in
            List.iter (fun (_, r) -> bump r) srcs;
            deletable b i dst
        | op ->
            let uses =
              if List.exists (moves ~bid ~pos) uses then begin
                let rename r = if is_old r then reach ~bid ~pos r else r in
                Block.set_op b i (Instr.map_mem_uses rename op);
                List.map rename uses
              end
              else uses
            in
            List.iter bump uses;
            (match op with Instr.Store { dst; _ } -> deletable b i dst | _ -> ()));
    (* --- Step 3: build the live candidates with their sources --- *)
    while not (Queue.is_empty phi_work) do
      let dst = Queue.pop phi_work in
      let bid = placed_bid.(dst.Resource.ver) in
      let b = Func.block f bid in
      let srcs =
        List.map
          (fun p ->
            let rd =
              match compute_reaching_def ctx ~bid:p ~pos:max_int with
              | Some rd -> rd
              | None ->
                  invalid_arg
                    "Incremental.update: no definition reaches a live phi \
                     source"
            in
            enqueue_if_placed_phi rd;
            bump rd;
            (p, rd))
          b.preds
      in
      (* prepended: first in the phi section, where renaming put it *)
      let i = Func.mk_instr f (Instr.Mphi { dst; srcs }) in
      Block.add_phi b i;
      Occ_index.note index bid i;
      deletable b i dst
    done;
    (* --- Step 4: delete definitions with no uses, cascading --- *)
    let swept = Array.make nv false in
    let doomed = Stack.create () in
    let sweep v =
      if
        counts.(v) = 0
        && (not swept.(v))
        && (match defs.(v) with [] -> false | _ :: _ -> true)
        && not (Resource.ResSet.mem { Resource.base; ver = v } protect)
      then begin
        swept.(v) <- true;
        List.iter (fun d -> Stack.push d doomed) defs.(v)
      end
    in
    for v = 0 to nv - 1 do
      sweep v
    done;
    let deleted = ref 0 in
    while not (Stack.is_empty doomed) do
      let (b : Block.t), (i : Instr.t) = Stack.pop doomed in
      Block.remove_instr b ~iid:i.iid;
      incr deleted;
      List.iter
        (fun (_, r) ->
          if kind_of r <> absent then begin
            counts.(r.ver) <- counts.(r.ver) - 1;
            sweep r.ver
          end)
        (Instr.mphi_srcs i.op)
    done;
    Rp_obs.Trace.add_attr "defs_deleted" (string_of_int !deleted);
    Rp_obs.Metrics.add "ssa.update.defs_deleted" !deleted
  end

(* The paper also positions the updater as a general tool "for
   incrementally converting resources to SSA form: when a compiler
   phase adds a new resource with multiple definitions and uses to the
   code stream".  This wrapper does exactly that: the variable's
   stores and may-definitions are given fresh versions (becoming the
   "cloned" set), its uses are pointed at a pseudo entry version, and
   one batch update computes the phis and the renaming.  SSA
   construction leaves the variables a function never loads or stores
   singly at version 0 ({!Construct}); a pass that gives one of them a
   singleton access converts it here. *)
let convert_new_variable ?engine (f : Func.t) (vid : Ids.vid) : unit =
  (* the entry version all uses start from *)
  let entry = Func.fresh_ver f vid in
  let clones = ref Resource.ResSet.empty in
  let use (r : Resource.t) = if r.base = vid then entry else r in
  let def (r : Resource.t) =
    if r.base = vid then begin
      let c = Func.fresh_ver f vid in
      clones := Resource.ResSet.add c !clones;
      c
    end
    else r
  in
  (* only the instructions that mention the variable, listed or implicit
     ([Func.expand]), are rewritten: the others keep opcode and stamp *)
  let mentions (op : Instr.opcode) =
    let found = ref false in
    Instr.iter_mem
      (fun (r : Resource.t) -> if r.base = vid then found := true)
      op;
    !found
  in
  let keep v = v = vid in
  Func.iter_blocks
    (fun b ->
      Block.iter_instrs
        (fun (i : Instr.t) ->
          let op = Func.expand ~keep f i.op in
          if mentions op then
            Block.set_op b i
              (Instr.map_mem_defs def (Instr.map_mem_uses use op)))
        b)
    f;
  update_for_cloned_resources ?engine f ~cloned_res:!clones
