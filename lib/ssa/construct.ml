(* Pruned SSA construction over both name spaces, following Cytron et
   al. [CFR+91]:

   - virtual registers are renamed to fresh registers,
   - memory variables with a singleton load or store in the function
     are renamed to versioned resources (section 3 of the paper: "We
     put singleton resources in SSA form in order to treat them
     uniformly with register resources"),
   - phi instructions ([Rphi]/[Mphi]) are placed at the iterated
     dominance frontier of the definition sites, pruned by a pre-SSA
     liveness analysis so no dead phi is created (dead memory phis
     would otherwise join unrelated names into one SSA web and make the
     promoter insert pointless compensation code).

   A variable the function never loads or stores singly is left alone:
   pointer accesses list it at version 0, calls and exit uses hold it
   implicitly ({!Func.t.clobbers}), and it gets no phi.  Promotion removes
   singleton loads and stores, so such a variable gives it nothing to
   work on (mem2reg's "find the promotable allocas first"); an aliased
   use of it is a use of its one live value.  In each function a
   variable is either wholly renamed or wholly unversioned, which
   {!Verify} checks.  A later pass that gives an unversioned variable a
   singleton access brings it into SSA with
   {!Incremental.convert_new_variable}.  Calls and exit uses list exactly
   the renamed members of their implicit sets (added below at version 0).

   An aliased store (call, pointer store) is a definition of every
   renamed resource it may touch: each gets a fresh version, exactly
   like the paper's "x4 = foo()".  Every renamed variable receives an
   implicit entry definition so uses before any store refer to the
   value the function was entered with.  Its version is handed out at
   the variable's first touch in the renaming walk; when that touch is
   a definition, the definition's version comes first.

   Placement works on the global names only (Briggs, Cooper, Harvey and
   Simpson, "Practical Improvements to the Construction and Destruction
   of Static Single Assignment Form", SP&E 1998): the locations that
   some block reads before it defines them there.  Any other location
   is live into no block, so the pruned placement never gives it a
   phi; location liveness, definition sites and the IDF run over the
   global names alone, numbered densely in ascending location order,
   and place exactly the phis an all-locations placement would, in the
   same order.  One walk finds the renamed variables, a second lists
   them at calls and exit uses and finds the global names, a third
   collects the liveness and definition sets over them.

   Renaming keeps one current name per register and per variable.  A
   global name's definitions are undone when the dominator-tree walk
   leaves their block; any other name is read only in the block that
   defined it, after the definition, so its current name is simply
   overwritten.  Each instruction is rewritten in one opcode
   construction, uses before definitions.  The tables over registers,
   locations and instructions are {!Id_table.Poly} arrays, which grow
   to cover ids past the function's counters. *)

open Rp_ir
open Rp_analysis

(* Locations unify the two name spaces for placement and pruning:
   even = register, odd = memory variable. *)
let loc_of_reg r = 2 * r

let loc_of_var v = (2 * v) + 1

let no_phis (f : Func.t) =
  invalid_arg
    (Printf.sprintf "Construct.run: %s already contains phi instructions"
       f.fname)

(* the location of an operand, and those of a resource list *)
let operand use = function
  | Instr.Reg r -> use (loc_of_reg r)
  | Instr.Imm _ -> ()

let rec vars visit = function
  | [] -> ()
  | (r : Resource.t) :: rest ->
      visit (loc_of_var r.base);
      vars visit rest

(* Visit the locations an instruction reads, then those it writes:
   [use] for each read, [def] for a strong definition (a register
   result, a singleton store), [may_def] for the may-definitions of an
   aliased store.  Memory reads and may-definitions are visited for
   every variable; the callers filter the renamed ones. *)
let iter_locs ~use ~def ~may_def (f : Func.t) (op : Instr.opcode) =
  match op with
  | Instr.Bin { dst; l; r; _ } ->
      operand use l;
      operand use r;
      def (loc_of_reg dst)
  | Instr.Un { dst; src; _ } | Instr.Copy { dst; src } ->
      operand use src;
      def (loc_of_reg dst)
  | Instr.Load { dst; src } ->
      use (loc_of_var src.base);
      def (loc_of_reg dst)
  | Instr.Store { dst; src } ->
      operand use src;
      def (loc_of_var dst.base)
  | Instr.Addr_of { dst; off; _ } ->
      operand use off;
      def (loc_of_reg dst)
  | Instr.Ptr_load { dst; addr; muses } ->
      operand use addr;
      vars use muses;
      def (loc_of_reg dst)
  | Instr.Ptr_store { addr; src; mdefs; muses } ->
      operand use addr;
      operand use src;
      vars use muses;
      vars may_def mdefs
  | Instr.Call { dst; args; mdefs; muses; _ } ->
      List.iter (operand use) args;
      vars use muses;
      (match dst with Some r -> def (loc_of_reg r) | None -> ());
      vars may_def mdefs
  | Instr.Dummy_aload { muses } | Instr.Exit_use { muses } -> vars use muses
  | Instr.Print { src } -> operand use src
  | Instr.Rphi _ | Instr.Mphi _ -> no_phis f

let iter_term_uses use (b : Block.t) =
  List.iter (fun r -> use (loc_of_reg r)) (Block.term_uses b)

(* ------------------------------------------------------------------ *)
(* The global-name walk *)

type names = {
  gid : int Id_table.Poly.t;  (** location -> dense id, or -1 *)
  globals : int array;  (** dense id -> location, ascending *)
}

(* The variables renamed into memory SSA: those with a singleton load or
   store in the function, which must have no phi yet. *)
let renamed_vars (f : Func.t) =
  let renamed = Bitset.empty () in
  Func.iter_instrs
    (fun _ (i : Instr.t) ->
      match i.op with
      | Load { src = r; _ } | Store { dst = r; _ } ->
          Bitset.add renamed r.Resource.base
      | Rphi _ | Mphi _ -> no_phis f
      | _ -> ())
    f;
  renamed

(* One walk, which first lists the renamed members of each call's and
   exit use's implicit set: a location is a global name when some block
   reads it before defining it strongly there.  Only strong definitions
   count: an aliased may-definition does not guarantee the old value is
   gone.  A variable that is not renamed is no name at all. *)
let global_names (f : Func.t) renamed : names =
  let exposed = Bitset.empty () in
  let keep = Bitset.mem renamed in
  (* the block that last defined each location strongly *)
  let killed = Id_table.Poly.create (2 * f.next_reg) ~default:(-1) in
  let bid = ref (-1) in
  let use l =
    if Id_table.Poly.get killed l <> !bid then Bitset.add exposed l
  in
  let def l = Id_table.Poly.set killed l !bid in
  let may_def _ = () in
  Func.iter_blocks
    (fun b ->
      bid := b.bid;
      Iseq.iter
        (fun (i : Instr.t) ->
          let op = Func.expand ~keep f i.op in
          if op != i.op then i.op <- op;
          iter_locs ~use ~def ~may_def f op)
        b.body;
      iter_term_uses use b)
    f;
  let gid = Id_table.Poly.create (2 * f.next_reg) ~default:(-1) in
  let globals =
    Bitset.fold
      (fun l acc ->
        if l land 1 = 0 || Bitset.mem renamed (l / 2) then l :: acc else acc)
      exposed []
    |> List.rev |> Array.of_list
  in
  Array.iteri (fun k l -> Id_table.Poly.set gid l k) globals;
  { gid; globals }

(* ------------------------------------------------------------------ *)
(* Placement sets over the global names: per block the names it reads
   before defining them ([gen]) and those it defines strongly ([kill]),
   per name the blocks defining it, may-definitions included *)

let placement_sets (f : Func.t) (names : names) =
  let n = max (Func.num_blocks f) 1 and ng = Array.length names.globals in
  let gen = Array.init n (fun _ -> Bitset.create ng) in
  let kill = Array.init n (fun _ -> Bitset.create ng) in
  let defs = Array.init ng (fun _ -> Bitset.create n) in
  let bid = ref (-1) in
  let g l = Id_table.Poly.get names.gid l in
  let use l =
    let k = g l in
    if k >= 0 && not (Bitset.mem kill.(!bid) k) then Bitset.add gen.(!bid) k
  in
  let def l =
    let k = g l in
    if k >= 0 then begin
      Bitset.add kill.(!bid) k;
      Bitset.add defs.(k) !bid
    end
  in
  let may_def l =
    let k = g l in
    if k >= 0 then Bitset.add defs.(k) !bid
  in
  Func.iter_blocks
    (fun b ->
      bid := b.bid;
      Iseq.iter
        (fun (i : Instr.t) -> iter_locs ~use ~def ~may_def f i.op)
        b.body;
      iter_term_uses use b)
    f;
  (* parameters are defined at the entry block *)
  List.iter
    (fun r ->
      let k = g (loc_of_reg r) in
      if k >= 0 then Bitset.add defs.(k) f.entry)
    f.params;
  (gen, kill, defs)

(* Pre-SSA liveness of the global names (no phis exist yet) *)
let live_in (f : Func.t) ~gen ~kill =
  let n = Array.length gen in
  let live_in = Array.init n (fun _ -> Bitset.empty ()) in
  let live_out = Array.init n (fun _ -> Bitset.empty ()) in
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

type idf_engine = Incremental.engine = Cytron | Sreedhar_gao

(* Convert [f], which must not already contain phi instructions, into
   pruned SSA form. *)
let run ?(engine = Cytron) (f : Func.t) : unit =
  let renamed = renamed_vars f in
  let names = global_names f renamed in
  (* refreshes the predecessor lists; renaming leaves the CFG alone *)
  let dom = Dom.compute f in
  Hashtbl.reset f.mver;
  let is_renamed (r : Resource.t) = Bitset.mem renamed r.base in
  let is_global l = Id_table.Poly.get names.gid l >= 0 in
  let gen, kill, defs = placement_sets f names in
  let live_in = live_in f ~gen ~kill in
  (* 1. phi placement at the pruned iterated dominance frontier, by
     ascending location *)
  let idf =
    match engine with
    | Cytron ->
        let df = Domfront.compute f dom in
        let scratch = Domfront.scratch df in
        fun init -> Domfront.iterated_in scratch df init
    | Sreedhar_gao ->
        let dj = Djgraph.build f dom in
        fun init -> Djgraph.idf dj init
  in
  (* the location each placed phi stands for, by iid: once the target
     is renamed it is no longer recoverable from the instruction *)
  let first_phi = f.next_iid in
  let phi_loc = Id_table.Poly.create 64 ~default:(-1) in
  (* every placed phi, so the source lists accumulated backwards during
     renaming can be reversed once at the end *)
  let placed_phis : Instr.t list ref = ref [] in
  Array.iteri
    (fun k l ->
      if not (Bitset.is_empty defs.(k)) then
        Bitset.iter
          (fun bid ->
            if Bitset.mem live_in.(bid) k then begin
              let b = Func.block f bid in
              let op =
                if l land 1 = 0 then Instr.Rphi { dst = l / 2; srcs = [] }
                else
                  Instr.Mphi { dst = Resource.unversioned (l / 2); srcs = [] }
              in
              let i = Func.mk_instr f op in
              Id_table.Poly.set phi_loc (i.iid - first_phi) l;
              placed_phis := i :: !placed_phis;
              Block.add_phi b i
            end)
          (idf defs.(k)))
    names.globals;
  (* 2. renaming along the dominator tree *)
  let named = Bitset.empty () in
  Hashtbl.iter (fun r _ -> if r >= 0 then Bitset.add named r) f.reg_names;
  (* the current name of each register, -1 while it is its own (a
     parameter, or a use without a definition, which Verify flags) *)
  let cur_reg = Id_table.Poly.create f.next_reg ~default:(-1) in
  let top_reg r =
    let x = Id_table.Poly.get cur_reg r in
    if x < 0 then r else x
  in
  (* the current version of each variable; [unset] until the first
     touch, which materialises the implicit entry definition *)
  let unset = Resource.unversioned (-1) in
  let cur_mem = Id_table.Poly.create 64 ~default:unset in
  let top_mem v =
    let x = Id_table.Poly.get cur_mem v in
    if x != unset then x
    else begin
      let r = Func.fresh_ver f v in
      Id_table.Poly.set cur_mem v r;
      r
    end
  in
  let rename = function
    | Instr.Reg r as o ->
        let r' = top_reg r in
        if r' = r then o else Instr.Reg r'
    | Instr.Imm _ as o -> o
  in
  let use_res r = if is_renamed r then top_mem r.Resource.base else r in
  let rec visit bid =
    let b = Func.block f bid in
    let undo_regs = ref [] and undo_mems = ref [] in
    let def_reg r =
      let name =
        if Bitset.mem named r then Hashtbl.find_opt f.reg_names r else None
      in
      let fresh = Func.fresh_reg ?name f in
      if is_global (loc_of_reg r) then
        undo_regs := (r, Id_table.Poly.get cur_reg r) :: !undo_regs;
      Id_table.Poly.set cur_reg r fresh;
      fresh
    in
    let def_mem v =
      let fresh = Func.fresh_ver f v in
      (* materialise the entry version below it *)
      let prev = top_mem v in
      if is_global (loc_of_var v) then undo_mems := (v, prev) :: !undo_mems;
      Id_table.Poly.set cur_mem v fresh;
      fresh
    in
    let def_res r = if is_renamed r then def_mem r.Resource.base else r in
    (* phi targets *)
    Iseq.iter
      (fun (i : Instr.t) ->
        match i.op with
        | Rphi { dst; srcs } -> i.op <- Rphi { dst = def_reg dst; srcs }
        | Mphi { dst; srcs } ->
            i.op <- Mphi { dst = def_mem dst.Resource.base; srcs }
        | _ -> ())
      b.phis;
    (* body: one rewrite per instruction, uses then definitions *)
    Iseq.iter
      (fun (i : Instr.t) ->
        i.op <-
          (match i.op with
          | Bin { dst; op; l; r } ->
              let l = rename l in
              let r = rename r in
              Bin { dst = def_reg dst; op; l; r }
          | Un { dst; op; src } ->
              let src = rename src in
              Un { dst = def_reg dst; op; src }
          | Copy { dst; src } ->
              let src = rename src in
              Copy { dst = def_reg dst; src }
          | Load { dst; src } ->
              let src = use_res src in
              Load { dst = def_reg dst; src }
          | Store { dst; src } ->
              let src = rename src in
              Store { dst = def_res dst; src }
          | Addr_of { dst; var; off } ->
              let off = rename off in
              Addr_of { dst = def_reg dst; var; off }
          | Ptr_load { dst; addr; muses } ->
              let addr = rename addr in
              let muses = Instr.map_shared use_res muses in
              Ptr_load { dst = def_reg dst; addr; muses }
          | Ptr_store { addr; src; mdefs; muses } ->
              let addr = rename addr in
              let src = rename src in
              let muses = Instr.map_shared use_res muses in
              let mdefs = Instr.map_shared def_res mdefs in
              Ptr_store { addr; src; mdefs; muses }
          | Call { dst; callee; args; mdefs; muses } ->
              let args = Instr.map_shared rename args in
              let muses = Instr.map_shared use_res muses in
              let dst =
                match dst with Some r -> Some (def_reg r) | None -> None
              in
              let mdefs = Instr.map_shared def_res mdefs in
              Call { dst; callee; args; mdefs; muses }
          | Dummy_aload { muses } ->
              Dummy_aload { muses = Instr.map_shared use_res muses }
          | Exit_use { muses } ->
              Exit_use { muses = Instr.map_shared use_res muses }
          | Print { src } -> Print { src = rename src }
          | Rphi _ | Mphi _ -> no_phis f))
      b.body;
    (* terminator uses *)
    (match b.term with
    | Br { cond; t; f = fl } -> b.term <- Br { cond = rename cond; t; f = fl }
    | Ret (Some o) -> b.term <- Ret (Some (rename o))
    | Jmp _ | Ret None -> ());
    (* fill phi sources of successors with the names live at the end of
       this block.  Sources are PREPENDED — O(1) instead of an append
       that re-copies the list once per predecessor — and every placed
       phi's list is reversed once after the walk, restoring the
       visit order. *)
    Block.iter_succs
      (fun s ->
        Iseq.iter
          (fun (i : Instr.t) ->
            let l = Id_table.Poly.get phi_loc (i.iid - first_phi) in
            match i.op with
            | Rphi { dst; srcs } ->
                i.op <- Rphi { dst; srcs = (bid, top_reg (l / 2)) :: srcs }
            | Mphi { dst; srcs } ->
                i.op <- Mphi { dst; srcs = (bid, top_mem (l / 2)) :: srcs }
            | _ -> ())
          (Func.block f s).phis)
      b;
    List.iter visit (Dom.children dom bid);
    List.iter (fun (r, prev) -> Id_table.Poly.set cur_reg r prev) !undo_regs;
    List.iter (fun (v, prev) -> Id_table.Poly.set cur_mem v prev) !undo_mems
  in
  visit f.entry;
  (* restore predecessor-visit order in every placed phi's sources *)
  List.iter
    (fun (i : Instr.t) ->
      match i.op with
      | Rphi { dst; srcs } -> i.op <- Rphi { dst; srcs = List.rev srcs }
      | Mphi { dst; srcs } -> i.op <- Mphi { dst; srcs = List.rev srcs }
      | _ -> ())
    !placed_phis
