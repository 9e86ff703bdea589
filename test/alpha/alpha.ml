(* A canonical text of an SSA program, equal for two programs that
   differ only by a renaming (alpha-equivalence, in the sense of
   Ghalayini & Krishnaswami's SSA alpha-equivalence).

   Within each block the phis run in parallel, so their order carries
   no meaning: they are sorted by variable (register phis by the name
   hint of their target, then memory phis by variable name; ties keep
   their order).  Registers, memory versions and instruction ids are
   then renumbered by first occurrence: blocks by increasing id, the
   sorted phis and then the body in position order, within an
   instruction the definitions before the uses and phi sources in list
   order.  Block ids, preds, frequencies, operators and constants are
   printed as they are.

   Used by the fingerprint suite and by [alpha_digests.exe], which
   prints the golden lines. *)

open Rp_ir

let sorted_phis tab (f : Func.t) (b : Block.t) =
  let key (i : Instr.t) =
    match i.op with
    | Rphi { dst; _ } ->
        (0, Option.value ~default:"" (Hashtbl.find_opt f.reg_names dst))
    | Mphi { dst; _ } -> (1, Resource.var_name tab dst.Resource.base)
    | _ -> (2, "")
  in
  List.stable_sort (fun a b -> compare (key a) (key b)) (Iseq.to_list b.phis)

let func_text tab (f : Func.t) =
  let blocks = Func.live_blocks f in
  (* a call or exit use with its implicit members listed, at version 0 *)
  let expand (i : Instr.t) =
    Instr.make i.iid (Func.expand ~keep:(fun _ -> true) f i.op)
  in
  let instrs (b : Block.t) =
    List.map expand (sorted_phis tab f b @ Iseq.to_list b.body)
  in
  (* canonical numbers by first occurrence *)
  let g = Func.create_func ~name:f.fname in
  let regs = Hashtbl.create 64 in
  let reg r =
    match Hashtbl.find_opt regs r with
    | Some c -> c
    | None ->
        let c = Hashtbl.length regs in
        Hashtbl.add regs r c;
        Option.iter (Hashtbl.replace g.reg_names c)
          (Hashtbl.find_opt f.reg_names r);
        c
  in
  let vers = Hashtbl.create 64 and next = Hashtbl.create 16 in
  let res (r : Resource.t) =
    match Hashtbl.find_opt vers r with
    | Some c -> c
    | None ->
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt next r.base) in
        Hashtbl.replace next r.base n;
        let c = { r with ver = n } in
        Hashtbl.add vers r c;
        c
  in
  let number (i : Instr.t) =
    Option.iter (fun r -> ignore (reg r)) (Instr.reg_def i.op);
    Instr.iter_reg_uses (fun r -> ignore (reg r)) i.op;
    List.iter (fun (_, r) -> ignore (reg r)) (Instr.rphi_srcs i.op);
    Instr.iter_mem (fun r -> ignore (res r)) i.op
  in
  List.iter (fun r -> ignore (reg r)) f.params;
  List.iter
    (fun (b : Block.t) ->
      List.iter number (instrs b);
      List.iter (fun r -> ignore (reg r)) (Block.term_uses b))
    blocks;
  (* print through the renaming; the position is the canonical iid *)
  let reg r = Hashtbl.find regs r and res r = Hashtbl.find vers r in
  let rename (op : Instr.opcode) : Instr.opcode =
    let op =
      match op with
      | Rphi { dst; srcs } ->
          Instr.Rphi { dst; srcs = List.map (fun (p, r) -> (p, reg r)) srcs }
      | Mphi { dst; srcs } ->
          Instr.Mphi { dst; srcs = List.map (fun (p, r) -> (p, res r)) srcs }
      | op -> op
    in
    Instr.map_reg_uses reg op |> Instr.map_reg_def reg
    |> Instr.map_mem_uses res |> Instr.map_mem_defs res
  in
  let term : Block.term -> Block.term = function
    | Br { cond; t; f } -> Br { cond = Instr.map_operand reg cond; t; f }
    | Ret (Some o) -> Ret (Some (Instr.map_operand reg o))
    | (Jmp _ | Ret None) as t -> t
  in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  line "func %s(%s) entry b%d" f.fname
    (String.concat ", " (List.map (fun r -> Func.reg_name g (reg r)) f.params))
    f.entry;
  let pos = ref 0 in
  List.iter
    (fun (b : Block.t) ->
      line "b%d: preds %s freq %.1f" b.bid
        (String.concat "," (List.map string_of_int b.preds))
        (Func.block_freq f b.bid);
      List.iter
        (fun (i : Instr.t) ->
          let i = Instr.make !pos (rename i.op) in
          incr pos;
          line "  %d: %s" i.iid (Pp.instr_to_string tab g i))
        (instrs b);
      line "  %s" (Format.asprintf "%a" (Pp.pp_term g) (term b.term)))
    blocks;
  Buffer.contents buf

let prog_text (p : Func.prog) =
  String.concat "\n" (List.map (func_text p.vartab) p.funcs)

(* the workloads with a golden alpha digest, in golden-file order *)
let targets =
  [ "go"; "li"; "ijpeg"; "perl"; "m88k"; "sc"; "compr"; "vortex"; "blur";
    "dot"; "lpc"; "gen60"; "gen120"; "gen240"; "gen480" ]

(* [rpromote dump --stage ssa TARGET], canonicalised and hashed *)
let digest target =
  match Rp_workloads.Registry.find target with
  | None -> invalid_arg ("unknown workload " ^ target)
  | Some w ->
      let prog, _ = Rp_core.Pipeline.prepare w.Rp_workloads.Registry.source in
      Digest.to_hex (Digest.string (prog_text prog))
