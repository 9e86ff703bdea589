(* IR instructions.

   The instruction set follows the paper's model: virtual registers and
   singleton memory resources are both first-class SSA names.  Singleton
   loads/stores ([Load]/[Store]) move scalar values between the two name
   spaces.  Aliased references — calls, pointer loads/stores, array
   accesses — carry explicit sets of singleton resources they may define
   ([mdefs]) or use ([muses]); these are the paper's aggregate resources.

   Phi instructions exist for both name spaces: [Rphi] joins register
   names and [Mphi] joins memory resource names at confluence points.

   An instruction is a mutable cell [{ iid; op; at }] so transformations
   can rewrite an instruction in place (e.g. replace a load by a copy)
   while sets keyed on instruction identity ([iid]) stay valid; [at]
   says which block's sequence holds it. *)

type reg = Ids.reg

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr

type unop = Neg | Lnot

type operand = Reg of reg | Imm of int

type call_kind =
  | User of string  (** user-defined function in the same program *)
  | Extern of string  (** unknown external function *)

type opcode =
  | Bin of { dst : reg; op : binop; l : operand; r : operand }
  | Un of { dst : reg; op : unop; src : operand }
  | Copy of { dst : reg; src : operand }
  | Load of { dst : reg; src : Resource.t }
      (** singleton load: dst = ld [src] *)
  | Store of { dst : Resource.t; src : operand }
      (** singleton store: st [dst] = src *)
  | Addr_of of { dst : reg; var : Ids.vid; off : operand }
      (** dst = &var + off (off in abstract element units) *)
  | Ptr_load of {
      dst : reg;
      addr : operand;
      muses : Resource.t list;  (** aliased load of these singletons *)
    }
  | Ptr_store of {
      addr : operand;
      src : operand;
      mdefs : Resource.t list;  (** aliased store *)
      muses : Resource.t list;
          (** weak update: the old versions that may survive *)
    }
  | Call of {
      dst : reg option;
      callee : call_kind;
      args : operand list;
      mdefs : Resource.t list;  (** aliased store side of the call *)
      muses : Resource.t list;  (** aliased load side of the call *)
    }
  | Dummy_aload of { muses : Resource.t list }
      (** dummy aliased load inserted by the promoter in interval
          preheaders to summarise an inner interval for its parent
          (paper section 4.4); removed by [cleanup]. *)
  | Exit_use of { muses : Resource.t list }
      (** virtual aliased load of every global placed at the end of each
          returning block: a function's caller may observe globals, so
          their memory image must be valid at the return.  Behaves as an
          aliased load for promotion; a no-op at execution time. *)
  | Rphi of { dst : reg; srcs : (Ids.bid * reg) list }
  | Mphi of { dst : Resource.t; srcs : (Ids.bid * Resource.t) list }
  | Print of { src : operand }  (** observable output; no memory effect *)

type t = { iid : Ids.iid; mutable op : opcode; mutable at : int }

let make iid op = { iid; op; at = -1 }

let is_phi i = match i.op with Rphi _ | Mphi _ -> true | _ -> false

let is_mphi i = match i.op with Mphi _ -> true | _ -> false

let is_rphi i = match i.op with Rphi _ -> true | _ -> false

let is_dummy i = match i.op with Dummy_aload _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Register defs and uses *)

let reg_def (op : opcode) : reg option =
  match op with
  | Bin { dst; _ }
  | Un { dst; _ }
  | Copy { dst; _ }
  | Load { dst; _ }
  | Addr_of { dst; _ }
  | Ptr_load { dst; _ }
  | Rphi { dst; _ } ->
      Some dst
  | Call { dst; _ } -> dst
  | Store _ | Ptr_store _ | Dummy_aload _ | Exit_use _ | Mphi _ | Print _ ->
      None

let regs_of_operand = function Reg r -> [ r ] | Imm _ -> []

(* Register uses, excluding phi sources (phi sources are uses at the end
   of the corresponding predecessor, and most analyses treat them
   specially). *)
let reg_uses (op : opcode) : reg list =
  match op with
  | Bin { l; r; _ } -> regs_of_operand l @ regs_of_operand r
  | Un { src; _ } | Copy { src; _ } | Print { src } -> regs_of_operand src
  | Load _ -> []
  | Store { src; _ } -> regs_of_operand src
  | Addr_of { off; _ } -> regs_of_operand off
  | Ptr_load { addr; _ } -> regs_of_operand addr
  | Ptr_store { addr; src; _ } -> regs_of_operand addr @ regs_of_operand src
  | Call { args; _ } -> List.concat_map regs_of_operand args
  | Dummy_aload _ | Exit_use _ -> []
  | Rphi _ | Mphi _ -> []

let iter_reg_uses (fn : reg -> unit) (op : opcode) : unit =
  let operand = function Reg r -> fn r | Imm _ -> () in
  match op with
  | Bin { l; r; _ } ->
      operand l;
      operand r
  | Un { src; _ } | Copy { src; _ } | Print { src } -> operand src
  | Store { src; _ } -> operand src
  | Addr_of { off; _ } -> operand off
  | Ptr_load { addr; _ } -> operand addr
  | Ptr_store { addr; src; _ } ->
      operand addr;
      operand src
  | Call { args; _ } -> List.iter operand args
  | Load _ | Dummy_aload _ | Exit_use _ | Rphi _ | Mphi _ -> ()

let rphi_srcs (op : opcode) : (Ids.bid * reg) list =
  match op with Rphi { srcs; _ } -> srcs | _ -> []

(* ------------------------------------------------------------------ *)
(* Memory resource defs and uses *)

(* The singleton resource defined by this instruction, if it is a
   singleton definition (store or memory phi). *)
let mem_def (op : opcode) : Resource.t option =
  match op with
  | Store { dst; _ } | Mphi { dst; _ } -> Some dst
  | Bin _ | Un _ | Copy _ | Load _ | Addr_of _ | Ptr_load _ | Ptr_store _
  | Call _ | Dummy_aload _ | Exit_use _ | Rphi _ | Print _ ->
      None

(* All resources defined, including the may-defs of aliased stores. *)
let mem_defs (op : opcode) : Resource.t list =
  match op with
  | Store { dst; _ } | Mphi { dst; _ } -> [ dst ]
  | Ptr_store { mdefs; _ } | Call { mdefs; _ } -> mdefs
  | Bin _ | Un _ | Copy _ | Load _ | Addr_of _ | Ptr_load _ | Dummy_aload _
  | Exit_use _ | Rphi _ | Print _ ->
      []

(* Resources used, excluding memory-phi sources. *)
let mem_uses (op : opcode) : Resource.t list =
  match op with
  | Load { src; _ } -> [ src ]
  | Ptr_load { muses; _ }
  | Ptr_store { muses; _ }
  | Call { muses; _ }
  | Dummy_aload { muses }
  | Exit_use { muses } ->
      muses
  | Bin _ | Un _ | Copy _ | Store _ | Addr_of _ | Rphi _ | Mphi _ | Print _
    ->
      []

let mphi_srcs (op : opcode) : (Ids.bid * Resource.t) list =
  match op with Mphi { srcs; _ } -> srcs | _ -> []

let iter_mem (fn : Resource.t -> unit) (op : opcode) : unit =
  match op with
  | Load { src; _ } -> fn src
  | Store { dst; _ } -> fn dst
  | Mphi { dst; srcs } ->
      fn dst;
      List.iter (fun (_, r) -> fn r) srcs
  | Ptr_load { muses; _ } | Dummy_aload { muses } | Exit_use { muses } ->
      List.iter fn muses
  | Ptr_store { mdefs; muses; _ } | Call { mdefs; muses; _ } ->
      List.iter fn mdefs;
      List.iter fn muses
  | Bin _ | Un _ | Copy _ | Addr_of _ | Rphi _ | Print _ -> ()

(* Is this instruction an aliased load / aliased store in the paper's
   sense?  (Calls are both.) *)
let is_aliased_load (op : opcode) =
  match op with
  | Ptr_load _ | Call _ | Dummy_aload _ | Exit_use _ -> true
  | Bin _ | Un _ | Copy _ | Load _ | Store _ | Addr_of _ | Ptr_store _
  | Rphi _ | Mphi _ | Print _ ->
      false

let is_aliased_store (op : opcode) =
  match op with
  | Ptr_store _ | Call _ -> true
  | Bin _ | Un _ | Copy _ | Load _ | Store _ | Addr_of _ | Ptr_load _
  | Dummy_aload _ | Exit_use _ | Rphi _ | Mphi _ | Print _ ->
      false

(* ------------------------------------------------------------------ *)
(* Rewriting *)

let map_operand f = function Reg r -> Reg (f r) | (Imm _ as o) -> o

(* [List.map], keeping the list itself, or its unchanged tail, where
   [f] returns every element as it was (physically); elements are
   visited in order *)
let rec map_shared f = function
  | [] -> []
  | x :: rest as l ->
      let y = f x in
      let rest' = map_shared f rest in
      if y == x && rest' == rest then l else y :: rest'

(* Rewrite register uses (not defs, not phi sources). *)
let map_reg_uses (f : reg -> reg) (op : opcode) : opcode =
  let fo = map_operand f in
  match op with
  | Bin b -> Bin { b with l = fo b.l; r = fo b.r }
  | Un u -> Un { u with src = fo u.src }
  | Copy c -> Copy { c with src = fo c.src }
  | Load _ -> op
  | Store s -> Store { s with src = fo s.src }
  | Addr_of a -> Addr_of { a with off = fo a.off }
  | Ptr_load p -> Ptr_load { p with addr = fo p.addr }
  | Ptr_store p -> Ptr_store { p with addr = fo p.addr; src = fo p.src }
  | Call c -> Call { c with args = List.map fo c.args }
  | Dummy_aload _ | Exit_use _ -> op
  | Rphi _ | Mphi _ -> op
  | Print p -> Print { src = fo p.src }

(* Rewrite the defined register. *)
let map_reg_def (f : reg -> reg) (op : opcode) : opcode =
  match op with
  | Bin b -> Bin { b with dst = f b.dst }
  | Un u -> Un { u with dst = f u.dst }
  | Copy c -> Copy { c with dst = f c.dst }
  | Load l -> Load { l with dst = f l.dst }
  | Addr_of a -> Addr_of { a with dst = f a.dst }
  | Ptr_load p -> Ptr_load { p with dst = f p.dst }
  | Call c -> Call { c with dst = Option.map f c.dst }
  | Rphi p -> Rphi { p with dst = f p.dst }
  | Store _ | Ptr_store _ | Dummy_aload _ | Exit_use _ | Mphi _ | Print _ ->
      op

(* Rewrite memory resource uses (not defs, not memory-phi sources). *)
let map_mem_uses (f : Resource.t -> Resource.t) (op : opcode) : opcode =
  match op with
  | Load l -> Load { l with src = f l.src }
  | Ptr_load p -> Ptr_load { p with muses = List.map f p.muses }
  | Ptr_store p -> Ptr_store { p with muses = List.map f p.muses }
  | Call c -> Call { c with muses = List.map f c.muses }
  | Dummy_aload d -> Dummy_aload { muses = List.map f d.muses }
  | Exit_use e -> Exit_use { muses = List.map f e.muses }
  | Bin _ | Un _ | Copy _ | Store _ | Addr_of _ | Rphi _ | Mphi _ | Print _
    ->
      op

(* Rewrite memory resource defs (store target, mphi target, may-defs). *)
let map_mem_defs (f : Resource.t -> Resource.t) (op : opcode) : opcode =
  match op with
  | Store s -> Store { s with dst = f s.dst }
  | Mphi p -> Mphi { p with dst = f p.dst }
  | Ptr_store p -> Ptr_store { p with mdefs = List.map f p.mdefs }
  | Call c -> Call { c with mdefs = List.map f c.mdefs }
  | Bin _ | Un _ | Copy _ | Load _ | Addr_of _ | Ptr_load _ | Dummy_aload _
  | Exit_use _ | Rphi _ | Print _ ->
      op

let set_rphi_srcs (i : t) srcs =
  match i.op with
  | Rphi p -> i.op <- Rphi { p with srcs }
  | _ -> invalid_arg "Instr.set_rphi_srcs: not a register phi"

let set_mphi_srcs (i : t) srcs =
  match i.op with
  | Mphi p -> i.op <- Mphi { p with srcs }
  | _ -> invalid_arg "Instr.set_mphi_srcs: not a memory phi"

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"
  | Band -> "and"
  | Bor -> "or"
  | Bxor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let unop_name = function Neg -> "neg" | Lnot -> "not"
