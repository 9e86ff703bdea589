(* Pruned SSA construction over both name spaces, following Cytron et
   al. [CFR+91]:

   - virtual registers are renamed to fresh registers,
   - memory variables are renamed to versioned resources (section 3 of
     the paper: "We put singleton resources in SSA form in order to
     treat them uniformly with register resources"),
   - phi instructions ([Rphi]/[Mphi]) are placed at the iterated
     dominance frontier of the definition sites, pruned by a pre-SSA
     liveness analysis so no dead phi is created (dead memory phis
     would otherwise join unrelated names into one SSA web and make the
     promoter insert pointless compensation code).

   An aliased store (call, pointer store) is a definition of every
   resource it may touch: each gets a fresh version, exactly like the
   paper's "x4 = foo()".  Every memory variable receives an implicit
   entry definition (version 1) so uses before any store refer to the
   value the function was entered with.

   The placement sets — location liveness, definition sites, the IDF —
   are all {!Bitset}s; locations have no cheap upper bound before the
   walk, so the sets rely on Bitset's auto-grow.  The per-location,
   per-register and per-instruction tables (definition sites, rename
   stacks, the origin of each placed phi) are {!Id_table.Poly} arrays,
   which grow to cover ids past the function's counters. *)

open Rp_ir
open Rp_analysis

(* Locations unify the two name spaces for placement and pruning:
   even = register, odd = memory variable. *)
let loc_of_reg r = 2 * r

let loc_of_var v = (2 * v) + 1

(* ------------------------------------------------------------------ *)
(* Pre-SSA location liveness (no phis exist yet) *)

let location_liveness (f : Func.t) =
  let n = Func.num_blocks f in
  let gen = Array.init (max n 1) (fun _ -> Bitset.empty ()) in
  let kill = Array.init (max n 1) (fun _ -> Bitset.empty ()) in
  Func.iter_blocks
    (fun b ->
      let g = gen.(b.bid) and k = kill.(b.bid) in
      let use l = if not (Bitset.mem k l) then Bitset.add g l in
      let def l = Bitset.add k l in
      Iseq.iter
        (fun (i : Instr.t) ->
          List.iter (fun r -> use (loc_of_reg r)) (Instr.reg_uses i.op);
          List.iter (fun r -> use (loc_of_var r.Resource.base)) (Instr.mem_uses i.op);
          (match Instr.reg_def i.op with
          | Some r -> def (loc_of_reg r)
          | None -> ());
          (* only strong definitions kill: an aliased may-def does not
             guarantee the old value is gone *)
          match i.op with
          | Store { dst; _ } -> def (loc_of_var dst.Resource.base)
          | Bin _ | Un _ | Copy _ | Load _ | Addr_of _ | Ptr_load _
          | Ptr_store _ | Call _ | Dummy_aload _ | Exit_use _ | Rphi _
          | Mphi _ | Print _ ->
              ())
        b.body;
      List.iter (fun r -> use (loc_of_reg r)) (Block.term_uses b))
    f;
  let live_in = Array.init (max n 1) (fun _ -> Bitset.empty ()) in
  let live_out = Array.init (max n 1) (fun _ -> Bitset.empty ()) in
  let out_acc = Bitset.empty () in
  let in_acc = Bitset.empty () in
  let order = Cfg.postorder f in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun bid ->
        let b = Func.block f bid in
        Bitset.clear out_acc;
        Block.iter_succs
          (fun s -> ignore (Bitset.union_into ~into:out_acc live_in.(s)))
          b;
        Bitset.clear in_acc;
        ignore (Bitset.union_into ~into:in_acc out_acc);
        ignore (Bitset.diff_into ~into:in_acc kill.(bid));
        ignore (Bitset.union_into ~into:in_acc gen.(bid));
        if
          (not (Bitset.equal out_acc live_out.(bid)))
          || not (Bitset.equal in_acc live_in.(bid))
        then begin
          Bitset.clear live_out.(bid);
          ignore (Bitset.union_into ~into:live_out.(bid) out_acc);
          Bitset.clear live_in.(bid);
          ignore (Bitset.union_into ~into:live_in.(bid) in_acc);
          changed := true
        end)
      order
  done;
  live_in

(* ------------------------------------------------------------------ *)

type idf_engine = Cytron | Sreedhar_gao

(* Convert [f] (which must not already contain phi instructions) into
   pruned SSA form.  Returns the set of memory variables that occur in
   the function. *)
let run ?(engine = Cytron) (f : Func.t) : unit =
  Cfg.recompute_preds f;
  let dom = Dom.compute f in
  Hashtbl.reset f.mver;
  let live_in = location_liveness f in
  (* 1. definition sites per location.  Phis are placed in the
     iteration order of [def_blocks], so it keeps the table; lookups go
     through [def_sets]. *)
  let def_blocks : (int, Bitset.t) Hashtbl.t = Hashtbl.create 64 in
  let def_sets = Id_table.Poly.create (2 * f.next_reg) ~default:None in
  let add_def l bid =
    let cur =
      match Id_table.Poly.get def_sets l with
      | Some s -> s
      | None ->
          let s = Bitset.empty () in
          Hashtbl.replace def_blocks l s;
          Id_table.Poly.set def_sets l (Some s);
          s
    in
    Bitset.add cur bid
  in
  Func.iter_blocks
    (fun b ->
      Iseq.iter
        (fun (i : Instr.t) ->
          (match Instr.reg_def i.op with
          | Some r -> add_def (loc_of_reg r) b.bid
          | None -> ());
          List.iter
            (fun r -> add_def (loc_of_var r.Resource.base) b.bid)
            (Instr.mem_defs i.op))
        b.body)
    f;
  (* parameters are defined at the entry block *)
  List.iter (fun r -> add_def (loc_of_reg r) f.entry) f.params;
  (* 2. phi placement at the pruned iterated dominance frontier *)
  let idf =
    match engine with
    | Cytron ->
        let df = Domfront.compute f dom in
        fun init -> Domfront.iterated df init
    | Sreedhar_gao ->
        let dj = Djgraph.build f dom in
        fun init -> Djgraph.idf dj init
  in
  (* remember which location each placed phi stands for: once the
     target is renamed the original location is no longer recoverable
     from the instruction itself *)
  let phi_origin = Id_table.Poly.create f.next_iid ~default:(-1) in
  (* every placed phi, so the source lists accumulated backwards during
     renaming can be reversed once at the end *)
  let placed_phis : Instr.t list ref = ref [] in
  Hashtbl.iter
    (fun l blocks ->
      let targets = idf blocks in
      Bitset.iter
        (fun bid ->
          if Bitset.mem live_in.(bid) l then begin
            let b = Func.block f bid in
            let op =
              if l land 1 = 0 then
                Instr.Rphi { dst = l / 2; srcs = [] }
              else
                Instr.Mphi { dst = Resource.unversioned (l / 2); srcs = [] }
            in
            let i = Func.mk_instr f op in
            Id_table.Poly.set phi_origin i.iid l;
            placed_phis := i :: !placed_phis;
            Block.add_phi b i
          end)
        targets)
    def_blocks;
  (* 3. renaming along the dominator tree *)
  let module S = Id_table.Poly in
  let reg_stack : Ids.reg list S.t = S.create f.next_reg ~default:[] in
  let mem_stack : Resource.t list S.t = S.create 64 ~default:[] in
  let top_reg r =
    match S.get reg_stack r with
    | x :: _ -> x
    | [] -> r (* use without def: leave; Verify will flag it *)
  in
  let push_reg r x = S.set reg_stack r (x :: S.get reg_stack r) in
  let pop_reg r =
    match S.get reg_stack r with
    | _ :: rest -> S.set reg_stack r rest
    | [] -> ()
  in
  let top_mem v =
    match S.get mem_stack v with
    | x :: _ -> x
    | [] ->
        (* first touch: the implicit entry definition *)
        let r = Func.fresh_ver f v in
        S.set mem_stack v [ r ];
        r
  in
  let push_mem v x =
    let cur =
      match S.get mem_stack v with
      | [] -> [ top_mem v ] (* materialise the entry version below it *)
      | l -> l
    in
    S.set mem_stack v (x :: cur)
  in
  let pop_mem v =
    match S.get mem_stack v with
    | _ :: rest -> S.set mem_stack v rest
    | [] -> ()
  in
  (* parameters keep their register ids and act as entry definitions *)
  List.iter (fun r -> push_reg r r) f.params;
  let rec visit bid =
    let b = Func.block f bid in
    let pushed_regs = ref [] and pushed_mems = ref [] in
    let def_reg r =
      let fresh =
        Func.fresh_reg ?name:(Hashtbl.find_opt f.reg_names r) f
      in
      push_reg r fresh;
      pushed_regs := r :: !pushed_regs;
      fresh
    in
    let def_mem v =
      let fresh = Func.fresh_ver f v in
      push_mem v fresh;
      pushed_mems := v :: !pushed_mems;
      fresh
    in
    (* phi targets *)
    Iseq.iter
      (fun (i : Instr.t) ->
        match i.op with
        | Rphi { dst; srcs } -> i.op <- Rphi { dst = def_reg dst; srcs }
        | Mphi { dst; srcs } ->
            i.op <- Mphi { dst = def_mem dst.Resource.base; srcs }
        | _ -> ())
      b.phis;
    (* body: uses then defs, in instruction order *)
    Iseq.iter
      (fun (i : Instr.t) ->
        let op = Instr.map_reg_uses top_reg i.op in
        let op = Instr.map_mem_uses (fun r -> top_mem r.Resource.base) op in
        let op =
          match Instr.reg_def op with
          | Some r -> Instr.map_reg_def (fun _ -> def_reg r) op
          | None -> op
        in
        let op = Instr.map_mem_defs (fun r -> def_mem r.Resource.base) op in
        i.op <- op)
      b.body;
    (* terminator uses *)
    (match b.term with
    | Br { cond; t; f = fl } ->
        b.term <- Br { cond = Instr.map_operand top_reg cond; t; f = fl }
    | Ret (Some o) -> b.term <- Ret (Some (Instr.map_operand top_reg o))
    | Jmp _ | Ret None -> ());
    (* fill phi sources of successors with the names live at the end of
       this block.  Sources are PREPENDED — O(1) instead of an append
       that re-copies the list once per predecessor — and every placed
       phi's list is reversed once after the walk, restoring the
       visit order. *)
    Block.iter_succs
      (fun s ->
        let sb = Func.block f s in
        Iseq.iter
          (fun (i : Instr.t) ->
            match Id_table.Poly.get phi_origin i.iid with
            | -1 -> () (* pre-existing phi: none exist before SSA *)
            | l -> (
                match i.op with
                | Rphi { dst; srcs } ->
                    i.op <- Rphi { dst; srcs = (bid, top_reg (l / 2)) :: srcs }
                | Mphi { dst; srcs } ->
                    i.op <- Mphi { dst; srcs = (bid, top_mem (l / 2)) :: srcs }
                | _ -> ()))
          sb.phis)
      b;
    List.iter visit (Dom.children dom bid);
    List.iter pop_reg !pushed_regs;
    List.iter pop_mem !pushed_mems
  in
  visit f.entry;
  (* restore predecessor-visit order in every placed phi's sources *)
  List.iter
    (fun (i : Instr.t) ->
      match i.op with
      | Rphi { dst; srcs } -> i.op <- Rphi { dst; srcs = List.rev srcs }
      | Mphi { dst; srcs } -> i.op <- Mphi { dst; srcs = List.rev srcs }
      | _ -> ())
    !placed_phis;
  (* entry versions for variables only ever used in unreachable-from-
     entry positions do not exist; nothing else to do *)
  Cfg.recompute_preds f
