(* SSA invariant checker.

   Run between pipeline stages (and after every promotion step in the
   tests) to catch a transformation that broke SSA form:

   - every register has at most one definition (parameters count),
   - in each function a memory variable is either renamed or
     unversioned ({!Construct}).  It is renamed when some occurrence
     carries a version; then every occurrence must, version 0 must not
     appear (nor stay implicit in a call or exit use, {!Func.expand}),
     and every resource (base, version) has at most one definition.
     An unversioned variable occurs only at version 0, in aliased
     lists or implicitly: a singleton load or store or a memory phi of
     it is an error, and since all its occurrences name its one live
     value, its may-definitions are not single assignments,
   - a memory phi joins versions of its target's variable only, so
     every SSA web (paper section 4.2) is made of one variable's
     versions,
   - at most one SSA name per memory location is live at any point
     is implied by the def/use dominance checks below,
   - every use is dominated by its definition; a phi source must be
     dominated at the end of the corresponding predecessor,
   - phi sources correspond 1:1 with predecessors (delegated to
     {!Rp_ir.Validate}). *)

open Rp_ir
open Rp_analysis

type error = { where : string; what : string }

let err where fmt = Format.kasprintf (fun what -> { where; what }) fmt

(* "no definition seen"; -1 is the entry definition *)
let undefined = -2

let check (tab : Resource.table) (f : Func.t) : error list =
  let loc bid = Printf.sprintf "%s/b%d" f.fname bid in
  (* each class of errors is collected apart and reported in a fixed
     order: structure, register single assignment, memory, dominance *)
  let structural =
    List.map
      (fun (e : Validate.error) ->
        { where = e.Validate.where; what = e.Validate.what })
      (Validate.check_func tab f)
  in
  let reg_errors = ref [] and mem_errors = ref [] and dom_errors = ref [] in
  let add_reg e = reg_errors := e :: !reg_errors in
  let add_mem e = mem_errors := e :: !mem_errors in
  let add_dom e = dom_errors := e :: !dom_errors in
  let dom = Dom.compute f in
  (* instruction positions within their block: phis all at -1 (they are
     parallel), body instructions at 0,1,2,... *)
  let pos = Id_table.create f.next_iid ~default:0
  and block_of = Id_table.create f.next_iid ~default:0 in
  (* single assignment for registers *)
  let reg_def_site = Id_table.create f.next_reg ~default:undefined in
  List.iter (fun r -> Id_table.set reg_def_site r (-1)) f.params;
  (* the renamed variables: those with a versioned occurrence.  Derived
     from the function itself, not from [Func.mver], which hand-built
     IR need not keep.  The memory checks run in the same walk that
     finds them, so they first take a version-0 resource to be of an
     unversioned variable; when some renamed variable also occurs at
     version 0 that guess was wrong, and the memory checks run again
     with the renamed set known. *)
  let renamed = Bitset.empty () and at_ver0 = Bitset.empty () in
  let exact = ref false in
  let unversioned (r : Resource.t) =
    if !exact then not (Bitset.mem renamed r.base) else r.ver = 0
  in
  (* single assignment for the resources of renamed variables; no
     version 0.  Definition sites live in an array over the dense
     resource ids; a resource outside the numbering (hand-built IR)
     falls back to a table. *)
  let ids = Res_ids.of_func f in
  let mem_def_site = Array.make (Res_ids.size ids) undefined in
  let stray : (Resource.t, Ids.iid) Hashtbl.t = Hashtbl.create 8 in
  let mem_def r =
    let k = Res_ids.id ids r in
    if k <> Res_ids.miss then mem_def_site.(k)
    else Option.value (Hashtbl.find_opt stray r) ~default:undefined
  in
  let set_mem_def r iid =
    let k = Res_ids.id ids r in
    if k <> Res_ids.miss then mem_def_site.(k) <- iid
    else Hashtbl.replace stray r iid
  in
  (* every memory occurrence passes through here *)
  let check_ver (r : Resource.t) =
    Bitset.add (if r.ver > 0 then renamed else at_ver0) r.base;
    if r.ver = 0 && not (unversioned r) then
      add_mem
        (err f.fname "unversioned resource %s"
           (Format.asprintf "%a" (Resource.pp tab) r))
  in
  (* the walks below recurse over the operand lists themselves, so a
     visit allocates nothing *)
  let def iid r =
    check_ver r;
    if unversioned r then ()
    else if mem_def r <> undefined then
      add_mem
        (err f.fname "resource %s defined more than once"
           (Format.asprintf "%a" (Resource.pp tab) r))
    else set_mem_def r iid
  in
  let rec defs iid = function
    | [] -> ()
    | r :: rest ->
        def iid r;
        defs iid rest
  in
  let rec vers = function
    | [] -> ()
    | r :: rest ->
        check_ver r;
        vers rest
  in
  let rec src_vers bid (dst : Resource.t) = function
    | [] -> ()
    | (_, (r : Resource.t)) :: rest ->
        check_ver r;
        if r.base <> dst.base then
          add_mem
            (err (loc bid)
               "memory phi of %s joins %s, a version of another variable"
               (Resource.var_name tab dst.base)
               (Format.asprintf "%a" (Resource.pp tab) r));
        src_vers bid dst rest
  in
  let singleton bid what (r : Resource.t) =
    if unversioned r then
      add_mem
        (err (loc bid) "%s of unversioned variable %s" what
           (Resource.var_name tab r.base))
  in
  let mem_instr bid (i : Instr.t) =
    match i.op with
    | Instr.Load { src; _ } ->
        singleton bid "singleton load" src;
        check_ver src
    | Instr.Store { dst; _ } ->
        singleton bid "singleton store" dst;
        def i.iid dst
    | Instr.Mphi { dst; srcs } ->
        singleton bid "memory phi" dst;
        def i.iid dst;
        src_vers bid dst srcs
    | Instr.Ptr_store { mdefs; muses; _ } | Instr.Call { mdefs; muses; _ } ->
        defs i.iid mdefs;
        vers muses
    | Instr.Ptr_load { muses; _ } | Instr.Dummy_aload { muses }
    | Instr.Exit_use { muses } ->
        vers muses
    | Instr.Bin _ | Instr.Un _ | Instr.Copy _ | Instr.Addr_of _ | Instr.Rphi _
    | Instr.Print _ ->
        ()
  in
  let bid = ref (-1) in
  let visit k (i : Instr.t) =
    Id_table.set pos i.iid k;
    Id_table.set block_of i.iid !bid;
    (match Instr.reg_def i.op with
    | Some r ->
        if Id_table.get reg_def_site r <> undefined then
          add_reg
            (err f.fname "register %s defined more than once"
               (Func.reg_name f r))
        else Id_table.set reg_def_site r i.iid
    | None -> ());
    mem_instr !bid i
  in
  let visit_phi i = visit (-1) i in
  Func.iter_blocks
    (fun b ->
      bid := b.bid;
      Iseq.iter visit_phi b.phis;
      Iseq.iteri visit b.body)
    f;
  if not (Bitset.disjoint renamed at_ver0) then begin
    exact := true;
    mem_errors := [];
    Array.fill mem_def_site 0 (Array.length mem_def_site) undefined;
    Hashtbl.reset stray;
    Func.iter_blocks (fun b -> Block.iter_instrs (mem_instr b.bid) b) f
  end;
  (* dominance of uses.  A definition at (db, dpos) reaches an ordinary
     use at (ub, upos) iff db strictly dominates ub, or db = ub and
     dpos < upos.  Entry definitions (parameters, entry versions of
     memory variables) dominate everything. *)
  let dominates_use ~def_iid ~use_bid ~use_pos =
    match def_iid with
    | -1 -> true (* entry definition *)
    | iid ->
        let db = Id_table.get block_of iid in
        let dpos = Id_table.get pos iid in
        if db = use_bid then dpos < use_pos
        else Dom.strictly_dominates dom ~a:db ~b:use_bid
  in
  (* a use in block [bid] is reported at "fname/bN", a string built
     only when there is something to report *)
  let check_reg_use ~bid r ~use_bid ~use_pos =
    let iid = Id_table.get reg_def_site r in
    if iid = undefined then
      add_dom
        (err (loc bid) "register %s used but never defined"
           (Func.reg_name f r))
    else if not (dominates_use ~def_iid:iid ~use_bid ~use_pos) then
      add_dom
        (err (loc bid) "use of %s not dominated by its definition"
           (Func.reg_name f r))
  in
  let check_mem_use ~bid (r : Resource.t) ~use_bid ~use_pos =
    (* an unversioned variable's one value is live throughout *)
    let iid = if unversioned r then undefined else mem_def r in
    (* no definition: the entry version, defined at entry *)
    if iid <> undefined && not (dominates_use ~def_iid:iid ~use_bid ~use_pos)
    then
      add_dom
        (err (loc bid) "use of %s not dominated by its definition"
           (Format.asprintf "%a" (Resource.pp tab) r))
  in
  let max_pos = max_int in
  let rec mem_uses bid k = function
    | [] -> ()
    | r :: rest ->
        check_mem_use ~bid r ~use_bid:bid ~use_pos:k;
        mem_uses bid k rest
  in
  let use_pos = ref 0 in
  let reg_use r = check_reg_use ~bid:!bid r ~use_bid:!bid ~use_pos:!use_pos in
  let is_renamed = Bitset.mem renamed in
  let body_instr k (i : Instr.t) =
    let bid = !bid in
    use_pos := k;
    Instr.iter_reg_uses reg_use i.op;
    (* a renamed member left implicit stands for its version 0 *)
    (match Func.expand ~keep:is_renamed f i.op with
    | op when op == i.op -> ()
    | op ->
        let at0 (r : Resource.t) = r.ver = 0 && is_renamed r.base in
        let r = List.find at0 (Instr.mem_defs op @ Instr.mem_uses op) in
        add_mem
          (err (loc bid) "renamed %s left implicit"
             (Resource.var_name tab r.base)));
    match i.op with
    | Instr.Load { src; _ } -> check_mem_use ~bid src ~use_bid:bid ~use_pos:k
    | Instr.Ptr_load { muses; _ }
    | Instr.Ptr_store { muses; _ }
    | Instr.Call { muses; _ }
    | Instr.Dummy_aload { muses }
    | Instr.Exit_use { muses } ->
        mem_uses bid k muses
    | Instr.Bin _ | Instr.Un _ | Instr.Copy _ | Instr.Store _ | Instr.Addr_of _
    | Instr.Rphi _ | Instr.Mphi _ | Instr.Print _ ->
        ()
  in
  (* phi sources: uses at the end of the predecessor *)
  let rec reg_srcs bid = function
    | [] -> ()
    | (p, r) :: rest ->
        check_reg_use ~bid r ~use_bid:p ~use_pos:max_pos;
        reg_srcs bid rest
  in
  let rec mem_srcs bid = function
    | [] -> ()
    | (p, r) :: rest ->
        check_mem_use ~bid r ~use_bid:p ~use_pos:max_pos;
        mem_srcs bid rest
  in
  let phi_instr (i : Instr.t) =
    let bid = !bid in
    match i.op with
    | Instr.Rphi { srcs; _ } -> reg_srcs bid srcs
    | Instr.Mphi { srcs; _ } -> mem_srcs bid srcs
    | _ -> ()
  in
  Func.iter_blocks
    (fun b ->
      bid := b.bid;
      let bid = b.bid in
      Iseq.iteri body_instr b.body;
      (match b.term with
      | Block.Br { cond = Instr.Reg r; _ } | Block.Ret (Some (Instr.Reg r)) ->
          check_reg_use ~bid r ~use_bid:bid ~use_pos:max_pos
      | Block.Br _ | Block.Ret _ | Block.Jmp _ -> ());
      Iseq.iter phi_instr b.phis)
    f;
  structural @ List.rev_append !reg_errors
    (List.rev_append !mem_errors (List.rev !dom_errors))

let errors_to_string errs =
  String.concat "\n"
    (List.map (fun e -> Printf.sprintf "%s: %s" e.where e.what) errs)

exception Broken of string

let assert_ok tab f =
  match check tab f with
  | [] -> ()
  | errs -> raise (Broken (errors_to_string errs))

let check_prog (p : Func.prog) : error list =
  List.concat_map (check p.vartab) p.funcs
