(* Out-of-SSA translation.

   Register phis are replaced by copies at the end of each predecessor.
   All phis of a block form one parallel assignment, so the per-pred
   copy groups are sequentialised with temporaries when they form
   cycles (the classic "parallel move" problem).

   Memory phis are simply dropped and every singleton resource is
   rewritten to version 0 — this is the paper's "when we leave SSA
   form, all of the singleton memory resources that refer to the same
   memory location must be replaced by one unique name".  It is sound
   because SSA guarantees at most one name per location is live at any
   point, so collapsing the names cannot merge live ranges.

   The function assumes no critical edges (established by the pipeline
   before SSA construction), so inserting copies at the end of a
   predecessor only affects the one edge carrying the phi value. *)

open Rp_ir

(* Sequentialise the parallel assignment [moves] = [(dst, src); ...]
   over the locations [loc] gives the registers (by default each
   register is its own location).  Emits a minimal sequence of
   sequential copies, using one fresh temporary per cycle.  A move
   whose source already sits in its destination's location writes
   nothing there; it is kept, first, so later passes still see the
   read. *)
let sequentialise ?(loc = Fun.id) (f : Func.t)
    (moves : (Ids.reg * Instr.operand) list) : (Ids.reg * Instr.operand) list =
  (* drop self-moves *)
  let moves = List.filter (fun (d, s) -> s <> Instr.Reg d) moves in
  let reads l = function Instr.Reg r -> loc r = l | Instr.Imm _ -> false in
  let in_place, moves = List.partition (fun (d, s) -> reads (loc d) s) moves in
  let pending = ref moves in
  let out = ref (List.rev in_place) in
  let emit d s = out := (d, s) :: !out in
  let is_source l = List.exists (fun (_, s) -> reads l s) !pending in
  (* every round either emits all ready moves or breaks one cycle, so
     [pending] strictly shrinks and the loop terminates *)
  while !pending <> [] do
    let ready, blocked =
      List.partition (fun (d, _) -> not (is_source (loc d))) !pending
    in
    if ready <> [] then begin
      List.iter (fun (d, s) -> emit d s) ready;
      pending := blocked
    end
    else
      match blocked with
      | [] -> ()
      | (d, s) :: rest ->
          (* a cycle: save the value in d's location to a temp, which
             the moves reading it then read instead *)
          let l = loc d in
          let saved = List.find (fun (_, s') -> reads l s') rest |> snd in
          let tmp = Func.fresh_reg ~name:"swap" f in
          emit tmp saved;
          let rest =
            List.map
              (fun (d', s') ->
                if reads l s' then (d', Instr.Reg tmp) else (d', s'))
              rest
          in
          emit d s;
          pending := rest
  done;
  List.rev !out

(* Lower [f] out of SSA and return the iids of the copies inserted for
   the phi moves.  The backend needs the set: phi-lowering moves are an
   artefact of leaving SSA — the oracle engines evaluate phis as
   parallel assignments that consume neither fuel nor instruction
   counts, so the compiled engine must not charge for them either.
   [loc] is passed to {!sequentialise}: the backend orders each
   predecessor's moves over the frame slots it assigned on SSA form. *)
let lower ?loc (f : Func.t) : Ids.IntSet.t =
  Cfg.recompute_preds f;
  (* collect per-pred copy groups from register phis *)
  let copies = Array.make (Func.num_blocks f) [] in
  Func.iter_blocks
    (fun b ->
      Iseq.iter
        (fun (i : Instr.t) ->
          match i.op with
          | Instr.Rphi { dst; srcs } ->
              List.iter
                (fun (p, r) -> copies.(p) <- (dst, Instr.Reg r) :: copies.(p))
                srcs
          | _ -> ())
        b.phis)
    f;
  (* insert them predecessor by predecessor, in block order *)
  let inserted = ref Ids.IntSet.empty in
  Array.iteri
    (fun pred moves ->
      let b = Func.block f pred in
      List.iter
        (fun (d, s) ->
          let i = Func.mk_instr f (Instr.Copy { dst = d; src = s }) in
          inserted := Ids.IntSet.add i.Instr.iid !inserted;
          Block.insert_at_end b i)
        (sequentialise ?loc f moves))
    copies;
  (* drop all phis, unversion all resources *)
  let unversion (r : Resource.t) = Resource.unversioned r.Resource.base in
  Func.iter_blocks
    (fun b ->
      Iseq.clear b.phis;
      Iseq.iter
        (fun (i : Instr.t) ->
          i.op <- Instr.map_mem_uses unversion i.op;
          i.op <- Instr.map_mem_defs unversion i.op)
        b.body)
    f;
  !inserted

let run (f : Func.t) : unit = ignore (lower f)
