(* Structural well-formedness checks for the IR.

   These are cheap invariants that must hold at every pipeline stage,
   SSA or not:
   - branch targets are live blocks,
   - the predecessor cache is consistent with the terminators,
   - each phi has exactly one source per predecessor, keyed by it,
   - phis appear only in the phi section,
   - instruction ids are unique within the function.

   SSA-specific invariants (single assignment, dominance of uses) live
   in [Rp_ssa.Verify]. *)

type error = { where : string; what : string }

let err where fmt = Format.kasprintf (fun what -> { where; what }) fmt

let check_func (tab : Resource.table) (f : Func.t) : error list =
  ignore tab;
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let nblocks = Func.num_blocks f in
  let live bid = bid >= 0 && bid < nblocks && not (Func.block f bid).Block.dead in
  if not (live f.entry) then
    add (err f.fname "entry block b%d is dead or out of range" f.entry);
  (* compute fresh preds to compare against the cache; only blocks in
     range are ever compared.  Blocks are visited in increasing id
     order, so each list is in decreasing order and a block can only
     repeat at its head. *)
  let fresh_preds = Array.make nblocks [] in
  Func.iter_blocks
    (fun b ->
      Block.iter_succs
        (fun s ->
          if s >= 0 && s < nblocks then
            match fresh_preds.(s) with
            | p :: _ when p = b.Block.bid -> ()
            | ps -> fresh_preds.(s) <- b.Block.bid :: ps)
        b)
    f;
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [] | [ _ ] -> true
  in
  let seen_iids = Id_table.create f.next_iid ~default:0 in
  let phi_errors = ref [] and dup_errors = ref [] in
  Func.iter_blocks
    (fun b ->
      (* the location "fname/bN", built only for an error *)
      let err fmt = err (Printf.sprintf "%s/b%d" f.fname b.bid) fmt in
      (* targets live *)
      List.iter
        (fun s ->
          if not (live s) then add (err "branch target b%d is dead" s))
        (Block.succs b);
      (* preds cache *)
      let expect = List.rev fresh_preds.(b.bid) in
      let preds =
        if increasing b.preds then b.preds else List.sort Int.compare b.preds
      in
      if not (List.equal Int.equal expect preds) then
        add
          (err "stale predecessor cache: cached {%s} actual {%s}"
             (String.concat "," (List.map string_of_int preds))
             (String.concat "," (List.map string_of_int expect)));
      (* sources listed in the cached preds order match; any other
         order is sorted and compared *)
      let rec in_pred_order srcs preds =
        match (srcs, preds) with
        | [], [] -> true
        | (p, _) :: srcs, q :: preds -> p = q && in_pred_order srcs preds
        | _ -> false
      in
      let check_phi_srcs srcs =
        if not (in_pred_order srcs b.preds) then begin
          let sorted = List.sort Int.compare (List.map fst srcs) in
          if not (List.equal Int.equal sorted preds) then
            phi_errors :=
              err "phi sources {%s} do not match preds {%s}"
                (String.concat "," (List.map string_of_int sorted))
                (String.concat "," (List.map string_of_int preds))
              :: !phi_errors
        end
      in
      (* iid uniqueness *)
      let seen (i : Instr.t) =
        if Id_table.get seen_iids i.iid <> 0 then
          dup_errors := err "duplicate instruction id %d" i.iid :: !dup_errors
        else Id_table.set seen_iids i.iid 1
      in
      (* one walk of each section; the block's errors are reported by
         class: phi placement, phi arity, duplicate ids *)
      Iseq.iter
        (fun (i : Instr.t) ->
          (match i.op with
          | Rphi { srcs; _ } -> check_phi_srcs srcs
          | Mphi { srcs; _ } -> check_phi_srcs srcs
          | _ -> add (err "non-phi instruction in phi section (iid %d)" i.iid));
          seen i)
        b.phis;
      Iseq.iter
        (fun (i : Instr.t) ->
          if Instr.is_phi i then
            add (err "phi instruction in body (iid %d)" i.iid);
          seen i)
        b.body;
      (* both lists, like [errors], are latest first *)
      errors := !dup_errors @ !phi_errors @ !errors;
      phi_errors := [];
      dup_errors := [])
    f;
  List.rev !errors

let check_prog (p : Func.prog) : error list =
  List.concat_map (check_func p.vartab) p.funcs

let errors_to_string errs =
  String.concat "\n"
    (List.map (fun e -> Printf.sprintf "%s: %s" e.where e.what) errs)

exception Invalid of string

(* Raise if the function is structurally broken; used as an internal
   assertion between pipeline stages. *)
let assert_ok tab f =
  match check_func tab f with
  | [] -> ()
  | errs -> raise (Invalid (errors_to_string errs))
