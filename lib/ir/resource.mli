(** Memory variables and singleton memory resources (paper section 3).

    A {e memory variable} is a named location the compiler knows about;
    a {e singleton memory resource} is an SSA name for one: the pair of
    the base variable and an SSA version. Version 0 means "not yet
    renamed". The paper's aggregate resources are sets of singleton
    resources an aliased operation may define or use (see {!Instr} and
    [Func.clobbers]: a call lists only its renamed members). *)

type var_kind =
  | Global  (** file-scope scalar variable *)
  | Addr_local of string  (** address-exposed local scalar; owner function *)
  | Struct_field of string * string
      (** scalar field of a global struct: (struct var name, field name) *)
  | Array of int  (** aggregate array variable; never promoted *)
  | Heap  (** the anonymous heap; never promoted *)
  | Elem of string
      (** scalar-replacement cell carved from an array element (scalrep
          pass); owner function. Promotable like an address-exposed
          local. *)

type var = {
  vid : Ids.vid;
  vname : string;
  vkind : var_kind;
  vinit : int;  (** initial value for scalars; 0 for aggregates *)
}

(** A singleton memory resource: base variable + SSA version. *)
type t = { base : Ids.vid; ver : int }

val compare : t -> t -> int

val equal : t -> t -> bool

(** The version-0 (pre-SSA) resource of a variable. *)
val unversioned : Ids.vid -> t

(** Is this kind of variable a candidate for scalar register promotion?
    The paper promotes global scalars, address-exposed local scalars,
    and scalar components of structure variables. *)
val promotable_kind : var_kind -> bool

module ResMap : Map.S with type key = t

module ResSet : Set.S with type elt = t

(** Program-wide variable table. *)
type table

val create_table : unit -> table

val add_var : table -> name:string -> kind:var_kind -> init:int -> Ids.vid

val var : table -> Ids.vid -> var

val var_name : table -> Ids.vid -> string

val num_vars : table -> int

val iter_vars : (var -> unit) -> table -> unit

(** [promotable tab vid] — see {!promotable_kind}. *)
val promotable : table -> Ids.vid -> bool

val pp_var : table -> Format.formatter -> Ids.vid -> unit

(** Prints [x_3]-style names, or just the variable name at version 0. *)
val pp : table -> Format.formatter -> t -> unit

(** Table-free printer for error paths. *)
val pp_raw : Format.formatter -> t -> unit
