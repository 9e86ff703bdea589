(* Frontend tests: lexer, parser, sema, alias analysis, lowering. *)

open Rp_minic

(* ------------------------------------------------------------------ *)
(* Lexer *)

let toks src = List.map (fun (t : Token.spanned) -> t.Token.tok) (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check int) "token count" 6 (List.length (toks "int x = 42 ;"));
  (match toks "x += 1;" with
  | [ IDENT "x"; PLUS_ASSIGN; INT_LIT 1; SEMI; EOF ] -> ()
  | _ -> Alcotest.fail "+= mislexed");
  (match toks "a<<2>>b<=c>=d==e!=f&&g||h" with
  | [
      IDENT "a"; SHL; INT_LIT 2; SHR; IDENT "b"; LE; IDENT "c"; GE; IDENT "d";
      EQ_EQ; IDENT "e"; BANG_EQ; IDENT "f"; AMP_AMP; IDENT "g"; BAR_BAR;
      IDENT "h"; EOF;
    ] -> ()
  | _ -> Alcotest.fail "multi-char operators mislexed")

let test_lexer_comments () =
  Alcotest.(check int) "line comment" 1 (List.length (toks "// nothing\n"));
  Alcotest.(check int) "block comment" 2
    (List.length (toks "/* a \n b */ x"));
  Alcotest.check_raises "unterminated comment"
    (Lexer.Error "1:1: unterminated comment") (fun () -> ignore (toks "/* oops"))

let test_lexer_positions () =
  let spanned = Lexer.tokenize "x\n  y" in
  match spanned with
  | [ a; b; _eof ] ->
      Alcotest.(check (pair int int)) "x at 1:1" (1, 1) (a.Token.line, a.Token.col);
      Alcotest.(check (pair int int)) "y at 2:3" (2, 3) (b.Token.line, b.Token.col)
  | _ -> Alcotest.fail "expected two tokens"

let test_lexer_bad_char () =
  Alcotest.check_raises "bad char" (Lexer.Error "1:1: unexpected character @")
    (fun () -> ignore (toks "@"))

(* The end of the input and a NUL byte in it: the lexer's look-ahead
   reads NUL past the end, which must neither end a token early nor
   hide a NUL of the input. *)
let test_lexer_end_of_input () =
  let raises what msg src =
    Alcotest.check_raises what (Lexer.Error msg) (fun () -> ignore (toks src))
  in
  raises "NUL byte" "1:3: unexpected character \\x00" "x \000 y";
  raises "NUL byte first" "1:1: unexpected character \\x00" "\000";
  raises "NUL after an operator" "2:2: unexpected character \\x00" "x\n<\000";
  raises "non-ASCII byte" "1:5: unexpected character \\xFF" "int \255";
  Alcotest.(check int) "NUL in comments" 2
    (List.length (toks "// \000\n/* \000 */ x"));
  raises "unterminated comment at the end" "2:3: unterminated comment"
    "x\ny /*";
  raises "unterminated comment, star last" "1:1: unterminated comment" "/**";
  raises "unterminated comment, slash inside" "1:3: unterminated comment"
    "x /*/";
  (match toks "x<" with
  | [ IDENT "x"; LT; EOF ] -> ()
  | _ -> Alcotest.fail "operator at the end mislexed");
  match Lexer.tokenize "ab\n12" with
  | [ a; b; eof ] ->
      Alcotest.(check (list (pair int int)))
        "positions up to EOF" [ (1, 1); (2, 1); (2, 3) ]
        (List.map
           (fun (t : Token.spanned) -> (t.Token.line, t.Token.col))
           [ a; b; eof ])
  | _ -> Alcotest.fail "expected two tokens"

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse src = Parser.parse_program src

let test_parse_precedence () =
  let p = parse "int main() { return 1 + 2 * 3 < 7 == 1; }" in
  match (List.hd p.Ast.funcs).Ast.fbody with
  | [ { s = Ast.Return (Some e); _ } ] -> (
      (* ((1 + (2*3)) < 7) == 1 *)
      match e.Ast.e with
      | Ast.Bin (Ast.Eq, { e = Ast.Bin (Ast.Lt, { e = Ast.Bin (Ast.Add, _, _); _ }, _); _ }, _)
        -> ()
      | _ -> Alcotest.fail "precedence shape wrong")
  | _ -> Alcotest.fail "expected a return"

let test_parse_assoc () =
  let p = parse "int main() { int x; int y; x = y = 3; return x; }" in
  match (List.hd p.Ast.funcs).Ast.fbody with
  | [ _; _; { s = Ast.Expr { e = Ast.Assign (Ast.Lid "x", { e = Ast.Assign (Ast.Lid "y", _); _ }); _ }; _ }; _ ]
    -> ()
  | _ -> Alcotest.fail "assignment should be right-associative"

let test_parse_postfix () =
  let p = parse "int a[3]; int main() { a[1]++; return a[0]; }" in
  match (List.hd p.Ast.funcs).Ast.fbody with
  | [ { s = Ast.Expr { e = Ast.Post_incr (Ast.Lindex _); _ }; _ }; _ ] -> ()
  | _ -> Alcotest.fail "postfix ++ on index"

let test_parse_dangling_else () =
  let p = parse "int main() { if (1) if (0) print(1); else print(2); return 0; }" in
  match (List.hd p.Ast.funcs).Ast.fbody with
  | [ { s = Ast.If (_, { s = Ast.If (_, _, Some _); _ }, None); _ }; _ ] -> ()
  | _ -> Alcotest.fail "else must bind to the inner if"

let test_parse_toplevel () =
  let p =
    parse
      {|
struct S { int a; int b; };
struct S sv;
int g = 5;
int arr[10];
int *gp;
extern int ext();
void v() { }
int f(int x, int *p) { return x; }
int main() { return 0; }
|}
  in
  Alcotest.(check int) "structs" 1 (List.length p.Ast.structs);
  Alcotest.(check int) "globals" 4 (List.length p.Ast.globals);
  Alcotest.(check int) "externs" 1 (List.length p.Ast.externs);
  Alcotest.(check int) "funcs" 3 (List.length p.Ast.funcs)

let test_parse_errors () =
  let bad = [ "int main() { return 1 + ; }"; "int main() { if 1 {} }"; "int x" ] in
  List.iter
    (fun src ->
      match parse src with
      | exception Parser.Error _ -> ()
      | _ -> Alcotest.fail ("parser accepted: " ^ src))
    bad

(* malformed subscripts and [for] headers must say what was being
   parsed and where: every message starts with line:column and names
   the construct *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_parse_error src substrings =
  match parse src with
  | exception Parser.Error m ->
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S mentions %S" m sub)
            true (contains m sub))
        substrings
  | _ -> Alcotest.fail ("parser accepted: " ^ src)

let test_parse_error_locations () =
  expect_parse_error "int a[4];\nint main() { return a[1; }"
    [ "2:"; "array subscript opened at 2:"; "expected ']'" ];
  expect_parse_error "int a[4];\nint main() { return a[]; }"
    [ "2:"; "array subscript needs an index expression" ];
  expect_parse_error
    "int main() {\n  int i;\n  for (i = 0 i < 4; i++) { }\n  return 0;\n}"
    [ "3:"; "'for' header, after the initialiser"; "expected ';'" ];
  expect_parse_error
    "int main() {\n  int i;\n  for (i = 0; i < 4 i++) { }\n  return 0;\n}"
    [ "3:"; "'for' header, after the condition"; "expected ';'" ];
  expect_parse_error
    "int main() {\n  int i;\n  for (i = 0; i < 4; i++ { }\n  return 0;\n}"
    [ "3:"; "'for' header, after the step"; "expected ')'" ];
  expect_parse_error "int main() {\n  int i;\n  for i = 0; ; i++ { }\n}"
    [ "3:"; "'for' header"; "expected '('" ];
  (* a literal past the native int range is a located lexer error *)
  (match parse "int main() {\n  return 99999999999999999999999;\n}" with
  | exception Lexer.Error m ->
      Alcotest.(check string) "out-of-range literal"
        "2:10: integer literal 99999999999999999999999 is out of range" m
  | _ -> Alcotest.fail "lexer accepted an out-of-range literal")

(* ------------------------------------------------------------------ *)
(* Sema *)

let expect_sema_error src =
  match Sema.analyse (parse src) with
  | exception Sema.Error _ -> ()
  | _ -> Alcotest.fail ("sema accepted: " ^ src)

let test_sema_errors () =
  List.iter expect_sema_error
    [
      "int main() { return y; }" (* unknown variable *);
      "int main() { unknown(); return 0; }" (* unknown function *);
      "int main() { int x; int x; return 0; }" (* redeclared local *);
      "int main() { break; return 0; }" (* break outside loop *);
      "int g; int main() { int *p = &g; return p; }" (* return pointer *);
      "int g; int main() { int *p = &g; int q = p + p; return 0; }"
      (* ptr + ptr *);
      "int main() { int *p; int q = *p + &q; return 0; }" (* int + ptr mix *);
      "void v() { } int main() { return v() ; }" (* void as value: lowering *);
      "int a[3]; int main() { a = 3; return 0; }" (* assign to array *);
      "struct S { int f; }; struct S s; int main() { s.g = 1; return 0; }"
      (* unknown field *);
      "int main() { int x; return x(3); }" (* not a function *);
      "int f(int a) { return a; } int main() { return f(); }"
      (* arity mismatch *);
      "int x; void main2() { }" (* no main *);
    ]

let test_sema_addr_taken () =
  let sema =
    Sema.analyse
      (parse
         {|
int use(int *p) { return *p; }
int main() {
  int a = 1;
  int b = 2;
  int c = use(&a) + b;
  return c;
}
|})
  in
  let info = Sema.func_info sema "main" in
  Alcotest.(check bool) "a is address-taken" true
    (Sema.StrSet.mem "a" info.Sema.addr_taken);
  Alcotest.(check bool) "b is not" false
    (Sema.StrSet.mem "b" info.Sema.addr_taken)

(* ------------------------------------------------------------------ *)
(* Alias analysis *)

let analyse src =
  let sema = Sema.analyse (parse src) in
  (sema, Alias.analyse sema)

let test_alias_points_to () =
  let src =
    {|
int g1;
int g2;
int arr[4];
int main() {
  int l = 0;
  int *p = &g1;
  int *q;
  if (l) { q = p; } else { q = &g2; }
  int *r = arr;
  print(*q + *r);
  return 0;
}
|}
  in
  let _sema, al = analyse src in
  let pts name =
    Alias.node_pts al (Alias.Nlocal ("main", name))
    |> Alias.TargetSet.elements
  in
  Alcotest.(check bool) "p -> g1" true (pts "p" = [ Alias.Tglobal "g1" ]);
  Alcotest.(check bool) "q -> {g1,g2}" true
    (List.sort compare (pts "q")
    = List.sort compare [ Alias.Tglobal "g1"; Alias.Tglobal "g2" ]);
  Alcotest.(check bool) "r -> arr" true (pts "r" = [ Alias.Tarray "arr" ])

let test_alias_interprocedural () =
  let src =
    {|
int sink(int *p) { return *p; }
int main() {
  int a = 3;
  return sink(&a);
}
|}
  in
  let _sema, al = analyse src in
  let pts =
    Alias.node_pts al (Alias.Nlocal ("sink", "p")) |> Alias.TargetSet.elements
  in
  Alcotest.(check bool) "callee param points at caller local" true
    (pts = [ Alias.Tlocal ("main", "a") ]);
  (* and a therefore escapes from main *)
  let esc = Alias.escaped al ~fn:"main" |> Alias.TargetSet.elements in
  Alcotest.(check bool) "a escapes" true (esc = [ Alias.Tlocal ("main", "a") ])

let test_alias_global_ptr_escape () =
  let src =
    {|
int *gp;
void other() { print(*gp); }
int main() {
  int a = 3;
  gp = &a;
  other();
  return a;
}
|}
  in
  let _sema, al = analyse src in
  let esc = Alias.escaped al ~fn:"main" |> Alias.TargetSet.elements in
  Alcotest.(check bool) "a escapes through the global pointer" true
    (esc = [ Alias.Tlocal ("main", "a") ])

(* ------------------------------------------------------------------ *)
(* Lowering *)

open Rp_ir

let lower src = Lower.compile src

let count_ops pred prog =
  List.fold_left
    (fun acc (f : Func.t) ->
      Func.fold_blocks
        (fun acc b ->
          Iseq.fold_left
            (fun acc (i : Instr.t) -> if pred i.Instr.op then acc + 1 else acc)
            acc b.Block.body)
        acc f)
    0 prog.Func.funcs

let test_lower_globals_are_memory () =
  let prog = lower "int g = 3; int main() { g = g + 1; return g; }" in
  let loads = count_ops (function Instr.Load _ -> true | _ -> false) prog in
  let stores = count_ops (function Instr.Store _ -> true | _ -> false) prog in
  Alcotest.(check int) "two loads of g" 2 loads;
  Alcotest.(check int) "one store of g" 1 stores

let test_lower_locals_are_registers () =
  let prog = lower "int main() { int x = 3; x = x + 1; return x; }" in
  let loads = count_ops (function Instr.Load _ -> true | _ -> false) prog in
  let stores = count_ops (function Instr.Store _ -> true | _ -> false) prog in
  Alcotest.(check int) "no loads" 0 loads;
  Alcotest.(check int) "no stores" 0 stores

let test_lower_addr_taken_local_is_memory () =
  let prog =
    lower
      {|
int main() {
  int x = 3;
  int *p = &x;
  *p = 5;
  return x;
}
|}
  in
  let stores = count_ops (function Instr.Store _ -> true | _ -> false) prog in
  let ptr_stores = count_ops (function Instr.Ptr_store _ -> true | _ -> false) prog in
  Alcotest.(check bool) "x lives in memory" true (stores >= 1);
  Alcotest.(check int) "pointer store is aliased" 1 ptr_stores

let test_lower_exit_use () =
  let prog = lower "int g; int main() { return 0; }" in
  let exit_uses = count_ops (function Instr.Exit_use _ -> true | _ -> false) prog in
  Alcotest.(check int) "one exit_use per return" 1 exit_uses

let test_lower_call_clobbers () =
  let prog =
    lower
      {|
int g1;
int g2;
void touch() { g1 = 1; }
int main() { touch(); return g1 + g2; }
|}
  in
  let main = Option.get (Func.find_func prog "main") in
  Alcotest.(check int) "the clobber set holds both globals" 2
    (Array.length main.Func.clobbers);
  let found = ref false in
  Func.iter_blocks
    (fun b ->
      Iseq.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call { mdefs; muses; _ } ->
              found := true;
              Alcotest.(check int) "call lists no def" 0 (List.length mdefs);
              Alcotest.(check int) "call lists no use" 0 (List.length muses);
              Alcotest.(check string) "call prints both globals"
                "call touch() {def g1, g2} {use g1, g2}"
                (Pp.instr_to_string prog.Func.vartab main i)
          | _ -> ())
        b.Block.body)
    main;
  Alcotest.(check bool) "call present" true !found

let test_lower_struct_fields () =
  let prog =
    lower
      {|
struct P { int x; int y; };
struct P pos;
int main() { pos.x = 1; pos.y = 2; return pos.x + pos.y; }
|}
  in
  Alcotest.(check int) "two field variables" 2
    (Resource.num_vars prog.Func.vartab);
  let stores = count_ops (function Instr.Store _ -> true | _ -> false) prog in
  Alcotest.(check int) "field stores are singleton" 2 stores

let test_lower_singleton_deref_opt () =
  let src =
    {|
int main() {
  int x = 3;
  int *p = &x;
  *p = 5;
  return *p;
}
|}
  in
  let plain = lower src in
  let opt = Lower.compile ~opt_singleton_deref:true src in
  let pstores p = count_ops (function Instr.Ptr_store _ -> true | _ -> false) p in
  Alcotest.(check int) "conservative keeps aliased store" 1 (pstores plain);
  Alcotest.(check int) "singleton opt strengthens it" 0 (pstores opt)

let test_lower_validates () =
  List.iter
    (fun (w : Rp_workloads.Registry.workload) ->
      let prog = lower w.Rp_workloads.Registry.source in
      List.iter (Validate.assert_ok prog.Func.vartab) prog.Func.funcs)
    Rp_workloads.Registry.all

(* A call or exit use lists nothing after lowering: both sets are held
   once, on the function, and every member is implicit. *)
let check_lists_nothing what (prog : Func.prog) =
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs
        (fun b (i : Instr.t) ->
          match i.op with
          | Instr.Call { mdefs = []; muses = []; _ } | Instr.Exit_use { muses = [] }
            ->
              ()
          | Instr.Call _ | Instr.Exit_use _ ->
              Alcotest.failf "%s: %s/b%d lists %s" what f.Func.fname b.Block.bid
                (Pp.instr_to_string prog.Func.vartab f i)
          | _ -> ())
        f)
    prog.Func.funcs

let test_lowered_lists_nothing () =
  List.iter
    (fun (what, options, src) ->
      check_lists_nothing what (fst (Rp_core.Pipeline.frontend ~options src)))
    Helpers.equivalence_programs

let prop_lowered_lists_nothing =
  QCheck.Test.make ~name:"lowered calls and exits list nothing (random programs)"
    ~count:100 Suite_qcheck.arb_program (fun src ->
      check_lists_nothing "random" (Lower.compile src);
      true)

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer bad char" `Quick test_lexer_bad_char;
    Alcotest.test_case "parser precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parser assoc" `Quick test_parse_assoc;
    Alcotest.test_case "parser postfix" `Quick test_parse_postfix;
    Alcotest.test_case "parser dangling else" `Quick test_parse_dangling_else;
    Alcotest.test_case "parser top level" `Quick test_parse_toplevel;
    Alcotest.test_case "parser errors" `Quick test_parse_errors;
    Alcotest.test_case "parser error locations" `Quick
      test_parse_error_locations;
    Alcotest.test_case "sema errors" `Quick test_sema_errors;
    Alcotest.test_case "sema addr-taken" `Quick test_sema_addr_taken;
    Alcotest.test_case "alias points-to" `Quick test_alias_points_to;
    Alcotest.test_case "alias interprocedural" `Quick test_alias_interprocedural;
    Alcotest.test_case "alias global ptr escape" `Quick test_alias_global_ptr_escape;
    Alcotest.test_case "lower globals to memory" `Quick test_lower_globals_are_memory;
    Alcotest.test_case "lower locals to registers" `Quick test_lower_locals_are_registers;
    Alcotest.test_case "lower addr-taken local" `Quick test_lower_addr_taken_local_is_memory;
    Alcotest.test_case "lower exit_use" `Quick test_lower_exit_use;
    Alcotest.test_case "lower call clobbers" `Quick test_lower_call_clobbers;
    Alcotest.test_case "lower struct fields" `Quick test_lower_struct_fields;
    Alcotest.test_case "lower singleton deref opt" `Quick test_lower_singleton_deref_opt;
    Alcotest.test_case "lower workloads validate" `Quick test_lower_validates;
    Alcotest.test_case "lexer end of input" `Quick test_lexer_end_of_input;
    Alcotest.test_case "lowered calls and exits list nothing" `Quick
      test_lowered_lists_nothing;
    Suite_qcheck.qtest prop_lowered_lists_nothing;
  ]
