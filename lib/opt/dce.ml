(* Dead code elimination on SSA form.

   Mark-and-sweep over register dataflow: instructions with observable
   effects (memory writes, calls, prints, control flow) are roots;
   everything a root transitively reads through registers is live; any
   pure instruction (arithmetic, copies, loads, address-of, register
   phis) whose result is never read by live code is removed.

   Loads are pure in this IR (no traps), so a load whose value is
   unused disappears.  The pipeline runs DCE *before* taking baseline
   measurements as well as after promotion, so the load/store counts
   compare promotion against a fair baseline rather than against
   lowering artifacts.

   The definition sites and the live marks are arrays over register and
   instruction ids ({!Id_table}), which also cover ids past the
   function's counters. *)

open Rp_ir

let run (f : Func.t) : int =
  let def_of = Id_table.Poly.create f.Func.next_reg ~default:None in
  let live = Id_table.create f.Func.next_iid ~default:0 in
  let work : Instr.t Queue.t = Queue.create () in
  let mark (i : Instr.t) =
    if Id_table.get live i.iid = 0 then begin
      Id_table.set live i.iid 1;
      Queue.add i work
    end
  in
  let mark_reg r =
    match Id_table.Poly.get def_of r with Some i -> mark i | None -> ()
  in
  (* roots: effectful instructions and terminator operands *)
  let is_root (i : Instr.t) =
    match i.op with
    | Instr.Store _ | Instr.Ptr_store _ | Instr.Call _ | Instr.Print _
    | Instr.Dummy_aload _ | Instr.Exit_use _ | Instr.Ptr_load _
    | Instr.Mphi _ ->
        (* Ptr_load can fault (null/bounds) and is kept; memory phis are
           analysis state kept for the promoter, removed at destruction *)
        true
    | Instr.Bin _ | Instr.Un _ | Instr.Copy _ | Instr.Load _
    | Instr.Addr_of _ | Instr.Rphi _ ->
        false
  in
  (* one walk notes each register's definition site and marks the
     effectful roots; the marks are propagated once every site is known *)
  Func.iter_blocks
    (fun b ->
      Block.iter_instrs
        (fun i ->
          (match Instr.reg_def i.op with
          | Some r -> Id_table.Poly.set def_of r (Some i)
          | None -> ());
          if is_root i then mark i)
        b)
    f;
  Func.iter_blocks (fun b -> List.iter mark_reg (Block.term_uses b)) f;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    Instr.iter_reg_uses mark_reg i.op;
    List.iter (fun (_, r) -> mark_reg r) (Instr.rphi_srcs i.op)
  done;
  let removed = ref 0 in
  Func.iter_blocks
    (fun b ->
      let keep (i : Instr.t) =
        let k = Id_table.get live i.iid <> 0 in
        if not k then incr removed;
        k
      in
      Iseq.filter_in_place keep b.phis;
      Iseq.filter_in_place keep b.body)
    f;
  !removed
