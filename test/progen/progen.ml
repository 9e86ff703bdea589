(* Random MiniC programs: bounded loops, random global/local/pointer
   traffic, calls on random paths.  The property tests draw from
   [gen_program]; the baseline golden generator draws a fixed sample. *)

module G = QCheck.Gen

type prog_ctx = {
  globals : string list;
  locals : string list;
  depth : int;
  loop_depth : int;
  allow_call : bool;  (** no calls inside touch() itself (recursion) *)
}

let gen_small_int = G.int_range (-20) 20

(* expressions over in-scope names; no division (determinism of traps) *)
let rec gen_expr ctx n : string G.t =
  let open G in
  let leaf =
    oneof
      [
        (gen_small_int >|= string_of_int);
        oneofl ctx.globals;
        (if ctx.locals = [] then gen_small_int >|= string_of_int
         else oneofl ctx.locals);
      ]
  in
  if n <= 0 then leaf
  else
    frequency
      [
        (2, leaf);
        ( 3,
          gen_expr ctx (n - 1) >>= fun a ->
          gen_expr ctx (n - 1) >>= fun b ->
          oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] >|= fun op ->
          Printf.sprintf "(%s %s %s)" a op b );
        ( 1,
          gen_expr ctx (n - 1) >>= fun a ->
          gen_expr ctx (n - 1) >>= fun b ->
          oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] >|= fun op ->
          Printf.sprintf "(%s %s %s)" a op b );
      ]

let gen_lhs ctx : string G.t =
  let open G in
  if ctx.locals = [] then oneofl ctx.globals
  else oneof [ oneofl ctx.globals; oneofl ctx.locals ]

let rec gen_stmt ctx : string G.t =
  let open G in
  let assign =
    gen_lhs ctx >>= fun lhs ->
    gen_expr ctx 2 >|= fun e -> Printf.sprintf "%s = %s;" lhs e
  in
  let incr =
    gen_lhs ctx >>= fun lhs ->
    oneofl [ "++"; "--" ] >|= fun op -> Printf.sprintf "%s%s;" lhs op
  in
  let opassign =
    gen_lhs ctx >>= fun lhs ->
    gen_expr ctx 1 >>= fun e ->
    oneofl [ "+="; "-="; "*=" ] >|= fun op ->
    Printf.sprintf "%s %s %s;" lhs op e
  in
  let call =
    if ctx.allow_call then return "touch();"
    else return "g0 = g0 ^ 1;"
  in
  let print_stmt =
    gen_expr ctx 2 >|= fun e -> Printf.sprintf "print(%s);" e
  in
  let ptr_poke =
    oneofl ctx.globals >>= fun g ->
    gen_expr ctx 1 >|= fun e -> Printf.sprintf "*(&%s) = %s;" g e
  in
  let ptr_read =
    oneofl ctx.globals >>= fun g ->
    gen_lhs ctx >|= fun lhs -> Printf.sprintf "%s = *(&%s);" lhs g
  in
  let local_poke =
    (* address-taken local traffic, only in main where locals exist *)
    if ctx.locals = [] then ptr_poke
    else
      oneofl ctx.locals >>= fun l ->
      gen_expr ctx 1 >|= fun e -> Printf.sprintf "*(&%s) = %s;" l e
  in
  let arr_stmt =
    gen_expr ctx 1 >>= fun e ->
    int_range 0 7 >>= fun i ->
    oneofl
      [
        Printf.sprintf "arr[%d] = %s;" i e;
        Printf.sprintf "g0 = g0 + arr[%d];" i;
      ]
    >|= fun s -> s
  in
  let field_stmt =
    gen_expr ctx 1 >>= fun e ->
    oneofl
      [
        Printf.sprintf "st.a = %s;" e;
        "st.b = st.a + st.b;";
        "g1 = g1 + st.b;";
      ]
    >|= fun s -> s
  in
  let base =
    [
      (4, assign); (2, incr); (2, opassign); (2, call); (2, print_stmt);
      (1, ptr_poke); (1, ptr_read); (1, local_poke); (1, arr_stmt);
      (1, field_stmt);
    ]
  in
  let compound =
    if ctx.depth <= 0 then []
    else
      [
        ( 2,
          gen_expr ctx 1 >>= fun c ->
          gen_block { ctx with depth = ctx.depth - 1 } >>= fun t ->
          gen_block { ctx with depth = ctx.depth - 1 } >|= fun e ->
          Printf.sprintf "if (%s) { %s } else { %s }" c t e );
        ( 2,
          if ctx.loop_depth >= 2 then G.map (fun s -> s) assign
          else
            int_range 1 6 >>= fun bound ->
            let lv = Printf.sprintf "l%d" ctx.loop_depth in
            gen_block
              { ctx with depth = ctx.depth - 1; loop_depth = ctx.loop_depth + 1 }
            >>= fun body ->
            oneofl
              [
                Printf.sprintf "for (%s = 0; %s < %d; %s++) { %s }" lv lv
                  bound lv body;
                Printf.sprintf "%s = 0; while (%s < %d) { %s %s++; }" lv lv
                  bound body lv;
                Printf.sprintf "%s = 0; do { %s %s++; } while (%s < %d);" lv
                  body lv lv bound;
              ]
            >|= fun s -> s );
      ]
  in
  frequency (base @ compound)

and gen_block ctx : string G.t =
  let open G in
  list_size (int_range 1 4) (gen_stmt ctx) >|= String.concat "\n    "

let gen_program : string G.t =
  let open G in
  int_range 2 4 >>= fun nglobals ->
  let globals = List.init nglobals (fun i -> Printf.sprintf "g%d" i) in
  let locals = [ "a"; "b" ] in
  let ctx = { globals; locals; depth = 2; loop_depth = 0; allow_call = true } in
  (* a touch() helper gives random call/clobber sites; it has no locals
     and must not call itself, so compound statements and calls are
     disabled inside it *)
  gen_block { ctx with locals = []; depth = 0; loop_depth = 2; allow_call = false }
  >>= fun touch_body ->
  gen_block ctx >>= fun main_body ->
  list_repeat nglobals gen_small_int >|= fun inits ->
  let decls =
    List.map2 (Printf.sprintf "int %s = %d;") globals inits
    |> String.concat "\n"
  in
  Printf.sprintf
    {|
%s
int arr[8];
struct S { int a; int b; };
struct S st;
void touch() {
    %s
}
int main() {
  int a = 1;
  int b = 2;
  int l0 = 0;
  int l1 = 0;
  %s
  print(a); print(b);
  print(st.a); print(st.b); print(arr[3]);
  %s
  return 0;
}
|}
    decls touch_body main_body
    (String.concat "\n  "
       (List.map (Printf.sprintf "print(%s);") globals))
