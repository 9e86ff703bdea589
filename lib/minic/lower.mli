(** Lowering MiniC to the IR, with the paper's memory placement:
    global scalars/pointers and struct fields become memory variables,
    arrays become aggregate variables, address-taken locals become
    address-exposed memory variables, all other locals become virtual
    registers. Calls and dereferences become aliased operations
    carrying may-def/may-use sets from {!Alias}; every return is
    preceded by an [Exit_use] of all program-lifetime variables. Both
    list nothing: their sets are held on the function ([Func.clobbers]). *)

exception Error of string

(** [lower sema alias] produces the IR program.
    [opt_singleton_deref]: lower a dereference whose points-to set is a
    single scalar as a singleton access (strong update) instead of an
    aliased one; off by default to keep the paper's model. *)
val lower : ?opt_singleton_deref:bool -> Sema.t -> Alias.t -> Rp_ir.Func.prog

(** Parse, check, analyse and lower a source string.
    @raise Lexer.Error | Parser.Error | Sema.Error | Error *)
val compile : ?opt_singleton_deref:bool -> string -> Rp_ir.Func.prog
