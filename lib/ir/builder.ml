(* Ergonomic construction of IR functions.

   Used by the MiniC lowering pass, by tests that build CFGs by hand,
   and by the examples that reconstruct the paper's figures. *)

type t = {
  func : Func.t;
  mutable cur : Block.t option;  (** current insertion block *)
}

let create ~name =
  let func = Func.create_func ~name in
  { func; cur = None }

let func b = b.func

let new_block b : Block.t = Func.add_block b.func

let set_block b blk = b.cur <- Some blk

let cur_block b =
  match b.cur with
  | Some blk -> blk
  | None -> invalid_arg "Builder: no current block"

let fresh_reg ?name b = Func.fresh_reg ?name b.func

(* Append an instruction to the current block and return it. *)
let emit b op : Instr.t =
  let i = Func.mk_instr b.func op in
  Block.insert_at_end (cur_block b) i;
  i

let bin b op l r : Instr.operand =
  let dst = fresh_reg b in
  ignore (emit b (Instr.Bin { dst; op; l; r }));
  Reg dst

let un b op src : Instr.operand =
  let dst = fresh_reg b in
  ignore (emit b (Instr.Un { dst; op; src }));
  Reg dst

let copy b ~dst src = ignore (emit b (Instr.Copy { dst; src }))

let load b ?name vid : Instr.operand =
  let dst = fresh_reg ?name b in
  ignore (emit b (Instr.Load { dst; src = Resource.unversioned vid }));
  Reg dst

let store b vid src =
  ignore (emit b (Instr.Store { dst = Resource.unversioned vid; src }))

let addr_of b vid off : Instr.operand =
  let dst = fresh_reg b in
  ignore (emit b (Instr.Addr_of { dst; var = vid; off }));
  Reg dst

let ptr_load b addr ~may_use : Instr.operand =
  let dst = fresh_reg b in
  let muses = List.map Resource.unversioned may_use in
  ignore (emit b (Instr.Ptr_load { dst; addr; muses }));
  Reg dst

let ptr_store b addr src ~may_def =
  let rs = List.map Resource.unversioned may_def in
  ignore (emit b (Instr.Ptr_store { addr; src; mdefs = rs; muses = rs }))

let call_instr b ~(dst : Ids.reg option) callee args =
  ignore (emit b (Instr.Call { dst; callee; args; mdefs = []; muses = [] }))

let print b src = ignore (emit b (Instr.Print { src }))

(* Terminators.  Each finishes the current block. *)

let jmp b (dst : Block.t) = (cur_block b).term <- Jmp dst.bid

let br b cond (t : Block.t) (f : Block.t) =
  (cur_block b).term <- Br { cond; t = t.bid; f = f.bid }

let ret b op = (cur_block b).term <- Ret op

(* Finish construction: set the entry block, recompute predecessors. *)
let finish b ~(entry : Block.t) =
  b.func.entry <- entry.bid;
  Cfg.recompute_preds b.func;
  b.func
