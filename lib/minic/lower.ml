(* Lowering MiniC to the IR.

   Memory placement follows the paper's model exactly:
   - global scalars and global pointers  -> Global memory variables,
   - scalar fields of global structs     -> Struct_field variables,
   - global arrays                       -> one aggregate Array variable,
   - address-taken locals and parameters -> Addr_local variables,
   - every other local                   -> a virtual register.

   Accesses to memory variables become singleton loads/stores; calls
   and pointer dereferences become aliased operations carrying the
   may-def/may-use sets computed by {!Alias}, a call's held once on the
   function ([Func.clobbers]: all program-lifetime variables and the
   escaped locals).  Every return is preceded by an [Exit_use] of all
   program-lifetime memory variables ([Func.exit_vars]), which is how
   the promoter learns that globals must be in memory at function
   exits.  Calls and exit uses list nothing.

   With [opt_singleton_deref] a dereference whose points-to set is a
   single scalar variable is lowered as a singleton access (a strong
   update); the default keeps the paper's conservative model where
   every pointer reference is an aliased reference. *)

exception Error of string

let error (pos : Ast.pos) fmt =
  Format.kasprintf
    (fun msg -> raise (Error (Printf.sprintf "%d:%d: %s" pos.line pos.col msg)))
    fmt

open Rp_ir

module StrMap = Sema.StrMap
module StrSet = Sema.StrSet

type genv = {
  sema : Sema.t;
  alias : Alias.t;
  prog : Func.prog;
  gvars : Ids.vid StrMap.t;  (** global scalars, pointers, arrays *)
  fields : (string * string, Ids.vid) Hashtbl.t;
  program_vars : Ids.vid array;  (** program lifetime, ascending *)
  opt_singleton_deref : bool;
}

(* where a local lives *)
type slot = Sreg of Ids.reg | Smem of Ids.vid

type fenv = {
  g : genv;
  b : Builder.t;
  fn : string;
  mutable slots : slot StrMap.t;
  mutable break_targets : Rp_ir.Block.t list;
  mutable continue_targets : Rp_ir.Block.t list;
  returns : bool;
  locals_mem : (string, Ids.vid) Hashtbl.t;  (** addr-taken locals *)
}

let vid_of_target (env : genv) (locals_mem : (string, Ids.vid) Hashtbl.t)
    ~(fn : string) (t : Alias.target) : Ids.vid option =
  match t with
  | Alias.Tglobal name | Alias.Tarray name -> StrMap.find_opt name env.gvars
  | Alias.Tfield (s, f) -> Hashtbl.find_opt env.fields (s, f)
  | Alias.Tlocal (f, name) ->
      if f = fn then Hashtbl.find_opt locals_mem name
      else
        (* a local of another function reachable through a pointer
           argument; it exists as a variable of that function *)
        None

let deref_vids (fe : fenv) (e : Ast.expr) : Ids.vid list =
  let ts = Alias.targets_of_expr fe.g.alias ~fn:fe.fn e in
  Alias.TargetSet.fold
    (fun t acc ->
      match vid_of_target fe.g fe.locals_mem ~fn:fe.fn t with
      | Some v -> v :: acc
      | None -> acc)
    ts []
  |> List.sort_uniq Int.compare

(* one single scalar target => the dereference is unambiguous *)
let singleton_scalar_target (fe : fenv) (vids : Ids.vid list) :
    Ids.vid option =
  if not fe.g.opt_singleton_deref then None
  else
    match vids with
    | [ v ] ->
        let var = Resource.var fe.g.prog.Func.vartab v in
        if Resource.promotable_kind var.Resource.vkind then Some v else None
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Expressions *)

let binop_to_ir : Ast.binop -> Instr.binop = function
  | Ast.Add -> Instr.Add
  | Ast.Sub -> Instr.Sub
  | Ast.Mul -> Instr.Mul
  | Ast.Div -> Instr.Div
  | Ast.Rem -> Instr.Rem
  | Ast.Lt -> Instr.Lt
  | Ast.Le -> Instr.Le
  | Ast.Gt -> Instr.Gt
  | Ast.Ge -> Instr.Ge
  | Ast.Eq -> Instr.Eq
  | Ast.Ne -> Instr.Ne
  | Ast.Band -> Instr.Band
  | Ast.Bor -> Instr.Bor
  | Ast.Bxor -> Instr.Bxor
  | Ast.Shl -> Instr.Shl
  | Ast.Shr -> Instr.Shr

let rec lower_expr (fe : fenv) (e : Ast.expr) : Instr.operand =
  let b = fe.b in
  match e.e with
  | Ast.Int n -> Instr.Imm n
  | Ast.Lval lv -> lower_lval_read fe e.epos lv
  | Ast.Addr lv -> lower_addr fe e.epos lv
  | Ast.Bin (op, l, r) ->
      let lo = lower_expr fe l in
      let ro = lower_expr fe r in
      Builder.bin b (binop_to_ir op) lo ro
  | Ast.Un (Ast.Neg, x) -> Builder.un b Instr.Neg (lower_expr fe x)
  | Ast.Un (Ast.Not, x) -> Builder.un b Instr.Lnot (lower_expr fe x)
  | Ast.And (l, r) -> lower_short_circuit fe ~is_and:true l r
  | Ast.Or (l, r) -> lower_short_circuit fe ~is_and:false l r
  | Ast.Call (name, args) -> (
      match lower_call fe e.epos name args with
      | Some op -> op
      | None -> error e.epos "void function %s used as a value" name)
  | Ast.Assign (lv, rhs) ->
      let v = lower_expr fe rhs in
      lower_lval_write fe e.epos lv v;
      v
  | Ast.Op_assign (op, lv, rhs) ->
      let old = lower_lval_read fe e.epos lv in
      let v = lower_expr fe rhs in
      let nv = Builder.bin fe.b (binop_to_ir op) old v in
      lower_lval_write fe e.epos lv nv;
      nv
  | Ast.Pre_incr lv | Ast.Pre_decr lv ->
      let op =
        match e.e with Ast.Pre_incr _ -> Instr.Add | _ -> Instr.Sub
      in
      let old = lower_lval_read fe e.epos lv in
      let nv = Builder.bin fe.b op old (Instr.Imm 1) in
      lower_lval_write fe e.epos lv nv;
      nv
  | Ast.Post_incr lv | Ast.Post_decr lv ->
      let op =
        match e.e with Ast.Post_incr _ -> Instr.Add | _ -> Instr.Sub
      in
      let old = lower_lval_read fe e.epos lv in
      let nv = Builder.bin fe.b op old (Instr.Imm 1) in
      lower_lval_write fe e.epos lv nv;
      old

and lower_short_circuit (fe : fenv) ~is_and l r : Instr.operand =
  let b = fe.b in
  (* result lives in one register assigned on both paths; SSA
     construction turns it into a phi *)
  let res = Builder.fresh_reg ~name:(if is_and then "and" else "or") b in
  let eval_r = Builder.new_block b in
  let short = Builder.new_block b in
  let join = Builder.new_block b in
  let lo = lower_expr fe l in
  if is_and then Builder.br b lo eval_r short
  else Builder.br b lo short eval_r;
  Builder.set_block b eval_r;
  let ro = lower_expr fe r in
  let norm = Builder.bin b Instr.Ne ro (Instr.Imm 0) in
  Builder.copy b ~dst:res norm;
  Builder.jmp b join;
  Builder.set_block b short;
  Builder.copy b ~dst:res (Instr.Imm (if is_and then 0 else 1));
  Builder.jmp b join;
  Builder.set_block b join;
  Instr.Reg res

and lower_call (fe : fenv) pos name args : Instr.operand option =
  let b = fe.b in
  let arg_ops = List.map (lower_expr fe) args in
  let callee, returns =
    match StrMap.find_opt name fe.g.sema.Sema.func_sigs with
    | Some (arity, returns) ->
        if List.length args <> arity then
          error pos "%s expects %d arguments" name arity;
        (Instr.User name, returns)
    | None ->
        if StrSet.mem name fe.g.sema.Sema.extern_names then
          (Instr.Extern name, true)
        else error pos "unknown function %s" name
  in
  let dst = if returns then Some (Builder.fresh_reg ~name:"ret" b) else None in
  Builder.call_instr b ~dst callee arg_ops;
  match dst with Some r -> Some (Instr.Reg r) | None -> None

and lower_addr (fe : fenv) pos (lv : Ast.lvalue) : Instr.operand =
  let b = fe.b in
  match lv with
  | Ast.Lid name -> (
      match StrMap.find_opt name fe.slots with
      | Some (Smem vid) -> Builder.addr_of b vid (Instr.Imm 0)
      | Some (Sreg _) ->
          error pos "address of register local %s (sema missed it?)" name
      | None -> (
          match StrMap.find_opt name fe.g.gvars with
          | Some vid -> Builder.addr_of b vid (Instr.Imm 0)
          | None -> error pos "unknown variable %s" name))
  | Ast.Lfield (s, f) -> (
      match Hashtbl.find_opt fe.g.fields (s, f) with
      | Some vid -> Builder.addr_of b vid (Instr.Imm 0)
      | None -> error pos "unknown field %s.%s" s f)
  | Ast.Lindex (base, idx) ->
      let base_op = lower_expr fe base in
      let idx_op = lower_expr fe idx in
      Builder.bin b Instr.Add base_op idx_op
  | Ast.Lderef e -> lower_expr fe e

and lower_lval_read (fe : fenv) pos (lv : Ast.lvalue) : Instr.operand =
  let b = fe.b in
  match lv with
  | Ast.Lid name -> (
      match StrMap.find_opt name fe.slots with
      | Some (Sreg r) -> Instr.Reg r
      | Some (Smem vid) -> Builder.load b ~name vid
      | None -> (
          match StrMap.find_opt name fe.g.gvars with
          | Some vid ->
              let var = Resource.var fe.g.prog.Func.vartab vid in
              (match var.Resource.vkind with
              | Resource.Array _ ->
                  (* array name decays to its address *)
                  Builder.addr_of b vid (Instr.Imm 0)
              | Resource.Global | Resource.Addr_local _
              | Resource.Struct_field _ | Resource.Heap | Resource.Elem _ ->
                  Builder.load b ~name vid)
          | None -> error pos "unknown variable %s" name))
  | Ast.Lfield (s, f) -> (
      match Hashtbl.find_opt fe.g.fields (s, f) with
      | Some vid -> Builder.load b ~name:(s ^ "." ^ f) vid
      | None -> error pos "unknown field %s.%s" s f)
  | Ast.Lindex (base, idx) -> (
      let vids = deref_vids fe base in
      match singleton_scalar_target fe vids with
      | Some vid ->
          (* still evaluate base and index for their side effects *)
          ignore (lower_expr fe base);
          ignore (lower_expr fe idx);
          Builder.load b vid
      | None ->
          let addr = lower_addr fe pos lv in
          Builder.ptr_load b addr ~may_use:vids)
  | Ast.Lderef e -> (
      let vids = deref_vids fe e in
      match singleton_scalar_target fe vids with
      | Some vid ->
          ignore (lower_expr fe e);
          Builder.load b vid
      | None ->
          let addr = lower_expr fe e in
          Builder.ptr_load b addr ~may_use:vids)

and lower_lval_write (fe : fenv) pos (lv : Ast.lvalue) (v : Instr.operand) :
    unit =
  let b = fe.b in
  match lv with
  | Ast.Lid name -> (
      match StrMap.find_opt name fe.slots with
      | Some (Sreg r) -> Builder.copy b ~dst:r v
      | Some (Smem vid) -> Builder.store b vid v
      | None -> (
          match StrMap.find_opt name fe.g.gvars with
          | Some vid -> Builder.store b vid v
          | None -> error pos "unknown variable %s" name))
  | Ast.Lfield (s, f) -> (
      match Hashtbl.find_opt fe.g.fields (s, f) with
      | Some vid -> Builder.store b vid v
      | None -> error pos "unknown field %s.%s" s f)
  | Ast.Lindex (base, idx) -> (
      let vids = deref_vids fe base in
      match singleton_scalar_target fe vids with
      | Some vid ->
          ignore (lower_expr fe base);
          ignore (lower_expr fe idx);
          Builder.store b vid v
      | None ->
          let addr = lower_addr fe pos lv in
          Builder.ptr_store b addr v ~may_def:vids)
  | Ast.Lderef e -> (
      let vids = deref_vids fe e in
      match singleton_scalar_target fe vids with
      | Some vid ->
          ignore (lower_expr fe e);
          Builder.store b vid v
      | None ->
          let addr = lower_expr fe e in
          Builder.ptr_store b addr v ~may_def:vids)

(* ------------------------------------------------------------------ *)
(* Statements *)

let emit_exit_use (fe : fenv) =
  ignore (Builder.emit fe.b (Instr.Exit_use { muses = [] }))

let rec lower_stmt (fe : fenv) (s : Ast.stmt) : unit =
  let b = fe.b in
  match s.s with
  | Ast.Expr { e = Ast.Call (name, args); epos } ->
      (* expression statement: a void call result is legitimately
         discarded here *)
      ignore (lower_call fe epos name args)
  | Ast.Expr e -> ignore (lower_expr fe e)
  | Ast.Decl { name; is_ptr = _; init } -> (
      let init_op =
        match init with
        | Some e -> lower_expr fe e
        | None -> Instr.Imm 0 (* deterministic: locals zero-initialise *)
      in
      match StrMap.find_opt name fe.slots with
      | Some (Smem vid) -> Builder.store b vid init_op
      | Some (Sreg r) -> Builder.copy b ~dst:r init_op
      | None -> error s.spos "unknown local %s (sema out of sync)" name)
  | Ast.If (c, t, e) -> (
      let co = lower_expr fe c in
      let bt = Builder.new_block b in
      let join = Builder.new_block b in
      match e with
      | None ->
          Builder.br b co bt join;
          Builder.set_block b bt;
          lower_stmt fe t;
          Builder.jmp b join;
          Builder.set_block b join
      | Some els ->
          let be = Builder.new_block b in
          Builder.br b co bt be;
          Builder.set_block b bt;
          lower_stmt fe t;
          Builder.jmp b join;
          Builder.set_block b be;
          lower_stmt fe els;
          Builder.jmp b join;
          Builder.set_block b join)
  | Ast.While (c, body) ->
      let header = Builder.new_block b in
      let bbody = Builder.new_block b in
      let exit = Builder.new_block b in
      Builder.jmp b header;
      Builder.set_block b header;
      let co = lower_expr fe c in
      Builder.br b co bbody exit;
      fe.break_targets <- exit :: fe.break_targets;
      fe.continue_targets <- header :: fe.continue_targets;
      Builder.set_block b bbody;
      lower_stmt fe body;
      Builder.jmp b header;
      fe.break_targets <- List.tl fe.break_targets;
      fe.continue_targets <- List.tl fe.continue_targets;
      Builder.set_block b exit
  | Ast.Do_while (body, c) ->
      let bbody = Builder.new_block b in
      let check = Builder.new_block b in
      let exit = Builder.new_block b in
      Builder.jmp b bbody;
      fe.break_targets <- exit :: fe.break_targets;
      fe.continue_targets <- check :: fe.continue_targets;
      Builder.set_block b bbody;
      lower_stmt fe body;
      Builder.jmp b check;
      Builder.set_block b check;
      let co = lower_expr fe c in
      Builder.br b co bbody exit;
      fe.break_targets <- List.tl fe.break_targets;
      fe.continue_targets <- List.tl fe.continue_targets;
      Builder.set_block b exit
  | Ast.For (init, cond, step, body) ->
      Option.iter (fun e -> ignore (lower_expr fe e)) init;
      let header = Builder.new_block b in
      let bbody = Builder.new_block b in
      let bstep = Builder.new_block b in
      let exit = Builder.new_block b in
      Builder.jmp b header;
      Builder.set_block b header;
      (match cond with
      | Some c ->
          let co = lower_expr fe c in
          Builder.br b co bbody exit
      | None -> Builder.jmp b bbody);
      fe.break_targets <- exit :: fe.break_targets;
      fe.continue_targets <- bstep :: fe.continue_targets;
      Builder.set_block b bbody;
      lower_stmt fe body;
      Builder.jmp b bstep;
      Builder.set_block b bstep;
      Option.iter (fun e -> ignore (lower_expr fe e)) step;
      Builder.jmp b header;
      fe.break_targets <- List.tl fe.break_targets;
      fe.continue_targets <- List.tl fe.continue_targets;
      Builder.set_block b exit
  | Ast.Return e ->
      let op = Option.map (lower_expr fe) e in
      emit_exit_use fe;
      Builder.ret b op;
      (* anything after a return in the same block is unreachable; give
         it a fresh block that the cleanup pass removes *)
      Builder.set_block b (Builder.new_block b)
  | Ast.Break -> (
      match fe.break_targets with
      | t :: _ ->
          Builder.jmp b t;
          Builder.set_block b (Builder.new_block b)
      | [] -> error s.spos "break outside a loop")
  | Ast.Continue -> (
      match fe.continue_targets with
      | t :: _ ->
          Builder.jmp b t;
          Builder.set_block b (Builder.new_block b)
      | [] -> error s.spos "continue outside a loop")
  | Ast.Print e ->
      let op = lower_expr fe e in
      Builder.print b op
  | Ast.Block stmts -> List.iter (lower_stmt fe) stmts
  | Ast.Cell_decl { name; arr = _ } ->
      (* scalrep cell: its own promotable memory variable. The transform
         guarantees def-before-use, so no initialising store is needed. *)
      let vid =
        Resource.add_var fe.g.prog.Func.vartab
          ~name:(fe.fn ^ ":" ^ name)
          ~kind:(Resource.Elem fe.fn) ~init:0
      in
      fe.slots <- StrMap.add name (Smem vid) fe.slots

(* ------------------------------------------------------------------ *)
(* Program *)

let lower ?(opt_singleton_deref = false) (sema : Sema.t) (alias : Alias.t) :
    Func.prog =
  let prog = Func.create_prog () in
  let tab = prog.Func.vartab in
  let gvars = ref StrMap.empty in
  let fields = Hashtbl.create 16 in
  let program_vars = ref [] in
  List.iter
    (fun (g : Ast.global) ->
      match g with
      | Ast.Gscalar { gname; ginit } ->
          let v = Resource.add_var tab ~name:gname ~kind:Resource.Global ~init:ginit in
          gvars := StrMap.add gname v !gvars;
          program_vars := v :: !program_vars
      | Ast.Gptr { gname } ->
          let v = Resource.add_var tab ~name:gname ~kind:Resource.Global ~init:0 in
          gvars := StrMap.add gname v !gvars;
          program_vars := v :: !program_vars
      | Ast.Garray { gname; gsize } ->
          let v =
            Resource.add_var tab ~name:gname ~kind:(Resource.Array gsize)
              ~init:0
          in
          gvars := StrMap.add gname v !gvars;
          program_vars := v :: !program_vars
      | Ast.Gstruct_var { gname; gstruct } ->
          let field_names =
            match StrMap.find_opt gstruct sema.Sema.struct_fields with
            | Some fs -> fs
            | None -> []
          in
          List.iter
            (fun f ->
              let v =
                Resource.add_var tab
                  ~name:(gname ^ "." ^ f)
                  ~kind:(Resource.Struct_field (gname, f))
                  ~init:0
              in
              Hashtbl.replace fields (gname, f) v;
              program_vars := v :: !program_vars)
            field_names)
    sema.Sema.prog.Ast.globals;
  let genv =
    {
      sema;
      alias;
      prog;
      gvars = !gvars;
      fields;
      program_vars = Array.of_list (List.rev !program_vars);
      opt_singleton_deref;
    }
  in
  List.iter
    (fun (astf : Ast.func) ->
      let info = Sema.func_info sema astf.fname in
      let b = Builder.create ~name:astf.fname in
      let func = Builder.func b in
      (* address-taken locals and parameters get memory variables *)
      let locals_mem = Hashtbl.create 8 in
      let mk_mem name =
        let v =
          Resource.add_var tab ~name:(astf.fname ^ ":" ^ name)
            ~kind:(Resource.Addr_local astf.fname) ~init:0
        in
        Hashtbl.replace locals_mem name v;
        v
      in
      let slots = ref StrMap.empty in
      (* parameters: always registers; address-taken ones are spilled
         into their memory variable at entry *)
      let param_regs =
        List.map
          (fun (p : Ast.param) -> (p, Func.fresh_reg ~name:p.pname func))
          astf.fparams
      in
      func.Func.params <- List.map snd param_regs;
      List.iter
        (fun ((p : Ast.param), r) ->
          if StrSet.mem p.pname info.Sema.addr_taken then
            ignore (mk_mem p.pname)
          else slots := StrMap.add p.pname (Sreg r) !slots)
        param_regs;
      List.iter
        (fun (name, _is_ptr) ->
          if StrSet.mem name info.Sema.addr_taken then begin
            let v = mk_mem name in
            slots := StrMap.add name (Smem v) !slots
          end
          else
            slots :=
              StrMap.add name (Sreg (Func.fresh_reg ~name func)) !slots)
        info.Sema.locals;
      (* address-taken params need their slot too *)
      List.iter
        (fun ((p : Ast.param), _) ->
          match Hashtbl.find_opt locals_mem p.pname with
          | Some v -> slots := StrMap.add p.pname (Smem v) !slots
          | None -> ())
        param_regs;
      (* call clobber set: all program-lifetime vars + escaped locals *)
      let escaped = Alias.escaped alias ~fn:astf.fname in
      let escaped_vids =
        Alias.TargetSet.fold
          (fun t acc ->
            match t with
            | Alias.Tlocal (_, name) -> (
                match Hashtbl.find_opt locals_mem name with
                | Some v -> v :: acc
                | None -> acc)
            | Alias.Tglobal _ | Alias.Tarray _ | Alias.Tfield _ -> acc)
          escaped []
      in
      let fe =
        {
          g = genv;
          b;
          fn = astf.fname;
          slots = !slots;
          break_targets = [];
          continue_targets = [];
          returns = astf.freturns;
          locals_mem;
        }
      in
      func.Func.clobbers <-
        Array.of_list (List.sort_uniq Int.compare
          (Array.to_list genv.program_vars @ escaped_vids));
      func.Func.exit_vars <- genv.program_vars;
      let entry = Builder.new_block b in
      Builder.set_block b entry;
      (* spill address-taken parameters *)
      List.iter
        (fun ((p : Ast.param), r) ->
          match Hashtbl.find_opt locals_mem p.pname with
          | Some v -> Builder.store b v (Instr.Reg r)
          | None -> ())
        param_regs;
      List.iter (lower_stmt fe) astf.fbody;
      (* implicit return at the end of the body *)
      emit_exit_use fe;
      Builder.ret b (if fe.returns then Some (Instr.Imm 0) else None);
      let func = Builder.finish b ~entry in
      Cfg.remove_unreachable func;
      Func.add_func prog func)
    sema.Sema.prog.Ast.funcs;
  prog

(* Convenience: parse, check, analyse and lower a source string. *)
let compile ?opt_singleton_deref (src : string) : Func.prog =
  let ast = Parser.parse_program src in
  let sema = Sema.analyse ast in
  let alias = Alias.analyse sema in
  lower ?opt_singleton_deref sema alias
