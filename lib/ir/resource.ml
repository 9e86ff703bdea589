(* Memory variables and memory resources (paper section 3).

   A {e memory variable} ([var]) is a named memory location known to the
   compiler: a global scalar, an address-exposed local scalar, a scalar
   field of a global struct, or a non-promotable aggregate (array, heap).
   Variables live in a program-wide table and are identified by [vid].

   A {e singleton memory resource} ([t]) is an SSA name for a memory
   variable: the pair of the base variable and an SSA version. Version 0
   means "not yet renamed" (pre-SSA IR uses version 0 everywhere); SSA
   construction assigns versions starting from 1.

   Aggregate resources from the paper are sets of singletons: a pointer
   access lists its set inline ([mdefs] / [muses]); a call's and an exit
   use's set is held once per function ([Func.clobbers], [exit_vars]),
   the instruction listing its renamed members, the others implicit. *)

type var_kind =
  | Global  (** file-scope scalar variable *)
  | Addr_local of string  (** address-exposed local scalar; owner function *)
  | Struct_field of string * string
      (** scalar field of a global struct: (struct var name, field name) *)
  | Array of int  (** aggregate array variable of given length; never promoted *)
  | Heap  (** the anonymous heap; never promoted *)
  | Elem of string
      (** scalar-replacement cell carved out of an array element by the
          scalrep pass; owner function. Behaves like an address-exposed
          local scalar and is promotable. *)

type var = {
  vid : Ids.vid;
  vname : string;
  vkind : var_kind;
  vinit : int;  (** initial value for scalars; 0 for aggregates *)
}

(* A singleton memory resource: base variable + SSA version. *)
type t = { base : Ids.vid; ver : int }

let compare (a : t) (b : t) =
  let c = Int.compare a.base b.base in
  if c <> 0 then c else Int.compare a.ver b.ver

let equal a b = compare a b = 0

let unversioned base = { base; ver = 0 }

(* Is this variable a candidate for scalar register promotion?  The paper
   promotes global scalars, address-exposed local scalars, and scalar
   components of structure variables. *)
let promotable_kind = function
  | Global | Addr_local _ | Struct_field _ | Elem _ -> true
  | Array _ | Heap -> false

module ResMap = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module ResSet = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

(* Program-wide variable table. *)
type table = { vars : var Vec.t }

let dummy_var = { vid = -1; vname = "?"; vkind = Heap; vinit = 0 }

let create_table () = { vars = Vec.create ~dummy:dummy_var }

let add_var table ~name ~kind ~init =
  let vid = Vec.length table.vars in
  let v = { vid; vname = name; vkind = kind; vinit = init } in
  Vec.push table.vars v;
  vid

let var table vid = Vec.get table.vars vid

let var_name table vid = (var table vid).vname

let num_vars table = Vec.length table.vars

let iter_vars f table = Vec.iter f table.vars

let promotable table vid = promotable_kind (var table vid).vkind

let pp_var table fmt vid = Format.pp_print_string fmt (var_name table vid)

let pp table fmt (r : t) =
  if r.ver = 0 then Format.fprintf fmt "%s" (var_name table r.base)
  else Format.fprintf fmt "%s_%d" (var_name table r.base) r.ver

(* Resource printer that does not need the table; used in error paths. *)
let pp_raw fmt (r : t) = Format.fprintf fmt "v%d_%d" r.base r.ver
