(* Textual IR printer.

   The syntax mirrors the paper's examples:
     t3 = ld [x_2]          singleton load
     st [x_3] = t4          singleton store
     x_4 = call foo() [may-def x_3] [may-use x_3]
     x_2 = mphi(x_0:b0, x_3:b2)
     t5 = phi(t1:b0, t4:b2) *)

open Format

let pp_operand (f : Func.t) fmt (o : Instr.operand) =
  match o with
  | Reg r -> pp_print_string fmt (Func.reg_name f r)
  | Imm n -> fprintf fmt "%d" n

let pp_res tab fmt r = Resource.pp tab fmt r

let pp_res_list tab fmt rs =
  pp_print_list
    ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
    (pp_res tab) fmt rs

let pp_call_kind fmt = function
  | Instr.User s -> pp_print_string fmt s
  | Instr.Extern s -> fprintf fmt "extern:%s" s

let pp_instr tab (f : Func.t) fmt (i : Instr.t) =
  let op = pp_operand f in
  match Func.expand ~keep:(fun _ -> true) f i.op with
  | Bin { dst; op = b; l; r } ->
      fprintf fmt "%s = %s %a, %a" (Func.reg_name f dst) (Instr.binop_name b)
        op l op r
  | Un { dst; op = u; src } ->
      fprintf fmt "%s = %s %a" (Func.reg_name f dst) (Instr.unop_name u) op src
  | Copy { dst; src } -> fprintf fmt "%s = %a" (Func.reg_name f dst) op src
  | Load { dst; src } ->
      fprintf fmt "%s = ld [%a]" (Func.reg_name f dst) (pp_res tab) src
  | Store { dst; src } ->
      fprintf fmt "st [%a] = %a" (pp_res tab) dst op src
  | Addr_of { dst; var; off } ->
      fprintf fmt "%s = &%s + %a" (Func.reg_name f dst)
        (Resource.var_name tab var) op off
  | Ptr_load { dst; addr; muses } ->
      fprintf fmt "%s = pld [%a] {use %a}" (Func.reg_name f dst) op addr
        (pp_res_list tab) muses
  | Ptr_store { addr; src; mdefs; muses } ->
      fprintf fmt "pst [%a] = %a {def %a} {use %a}" op addr op src
        (pp_res_list tab) mdefs (pp_res_list tab) muses
  | Call { dst; callee; args; mdefs; muses } ->
      (match dst with
      | Some d -> fprintf fmt "%s = " (Func.reg_name f d)
      | None -> ());
      fprintf fmt "call %a(%a) {def %a} {use %a}" pp_call_kind callee
        (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") op)
        args (pp_res_list tab) mdefs (pp_res_list tab) muses
  | Dummy_aload { muses } ->
      fprintf fmt "dummy_aload {use %a}" (pp_res_list tab) muses
  | Exit_use { muses } ->
      fprintf fmt "exit_use {use %a}" (pp_res_list tab) muses
  | Rphi { dst; srcs } ->
      fprintf fmt "%s = phi(%a)" (Func.reg_name f dst)
        (pp_print_list
           ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
           (fun fmt (b, r) -> fprintf fmt "%s:b%d" (Func.reg_name f r) b))
        srcs
  | Mphi { dst; srcs } ->
      fprintf fmt "%a = mphi(%a)" (pp_res tab) dst
        (pp_print_list
           ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
           (fun fmt (b, r) -> fprintf fmt "%a:b%d" (pp_res tab) r b))
        srcs
  | Print { src } -> fprintf fmt "print %a" op src

let pp_term (f : Func.t) fmt (t : Block.term) =
  match t with
  | Jmp l -> fprintf fmt "jmp b%d" l
  | Br { cond; t; f = fl } ->
      fprintf fmt "br %a ? b%d : b%d" (pp_operand f) cond t fl
  | Ret None -> pp_print_string fmt "ret"
  | Ret (Some o) -> fprintf fmt "ret %a" (pp_operand f) o

let pp_block tab (f : Func.t) fmt (b : Block.t) =
  fprintf fmt "@[<v 2>b%d:  ; preds: %s freq: %.1f@,"
    b.bid
    (String.concat "," (List.map (fun p -> "b" ^ string_of_int p) b.preds))
    (Func.block_freq f b.bid);
  Iseq.iter (fun i -> fprintf fmt "%a@," (pp_instr tab f) i) b.phis;
  Iseq.iter (fun i -> fprintf fmt "%a@," (pp_instr tab f) i) b.body;
  fprintf fmt "%a@]" (pp_term f) b.term

let pp_func tab fmt (f : Func.t) =
  fprintf fmt "@[<v>func %s(%s) entry b%d@,"
    f.fname
    (String.concat ", " (List.map (Func.reg_name f) f.params))
    f.entry;
  Func.iter_blocks (fun b -> fprintf fmt "%a@," (pp_block tab f) b) f;
  fprintf fmt "@]"

let func_to_string tab f = Format.asprintf "%a" (pp_func tab) f

let instr_to_string tab f i = Format.asprintf "%a" (pp_instr tab f) i

let pp_prog fmt (p : Func.prog) =
  Format.fprintf fmt "@[<v>";
  Resource.iter_vars
    (fun v ->
      Format.fprintf fmt "var %s = %d@," v.Resource.vname v.Resource.vinit)
    p.vartab;
  List.iter (fun f -> Format.fprintf fmt "%a@," (pp_func p.vartab) f) p.funcs;
  Format.fprintf fmt "@]"

let prog_to_string p = Format.asprintf "%a" pp_prog p
