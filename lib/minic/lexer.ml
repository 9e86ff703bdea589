(* Hand-written lexer for MiniC.  Supports // and C-style block
   comments; reports errors with line and column. *)

exception Error of string

let error line col fmt =
  Format.kasprintf
    (fun msg -> raise (Error (Printf.sprintf "%d:%d: %s" line col msg)))
    fmt

let keyword_of_string = function
  | "int" -> Some Token.KW_INT
  | "void" -> Some Token.KW_VOID
  | "struct" -> Some Token.KW_STRUCT
  | "if" -> Some Token.KW_IF
  | "else" -> Some Token.KW_ELSE
  | "while" -> Some Token.KW_WHILE
  | "for" -> Some Token.KW_FOR
  | "do" -> Some Token.KW_DO
  | "return" -> Some Token.KW_RETURN
  | "break" -> Some Token.KW_BREAK
  | "continue" -> Some Token.KW_CONTINUE
  | "print" -> Some Token.KW_PRINT
  | "extern" -> Some Token.KW_EXTERN
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : Token.spanned list =
  let n = String.length src in
  let toks = ref [] in
  let pos = ref 0 and line = ref 1 and col = ref 1 in
  (* the character [k] ahead, or NUL past the end: no token continues
     with NUL, so the end of the input stops every token as it should.
     The main loop reads the current character from [src] itself, so a
     NUL byte of the input is reported, not taken for the end. *)
  let peek k = if !pos + k < n then src.[!pos + k] else '\000' in
  let advance () =
    (if !pos < n then
       if src.[!pos] = '\n' then begin
         incr line;
         col := 1
       end
       else incr col);
    incr pos
  in
  let emit tok = toks := { Token.tok; line = !line; col = !col } :: !toks in
  (* emit with an explicit start position (identifiers and numbers are
     consumed before being emitted) *)
  let emit_at tok l c = toks := { Token.tok; line = l; col = c } :: !toks in
  (* emit a token spanning [k] chars and advance past it *)
  let emitn tok k =
    emit tok;
    for _ = 1 to k do
      advance ()
    done
  in
  while !pos < n do
    match src.[!pos] with
    | ' ' | '\t' | '\r' | '\n' -> advance ()
    | '/' when peek 1 = '/' ->
        while !pos < n && peek 0 <> '\n' do
          advance ()
        done
    | '/' when peek 1 = '*' ->
        let l0 = !line and c0 = !col in
        advance ();
        advance ();
        let closed = ref false in
        while (not !closed) && !pos < n do
          if peek 0 = '*' && peek 1 = '/' then begin
            advance ();
            advance ();
            closed := true
          end
          else advance ()
        done;
        if not !closed then error l0 c0 "unterminated comment"
    | c when is_digit c ->
        let start = !pos and l0 = !line and c0 = !col in
        while is_digit (peek 0) do
          advance ()
        done;
        let text = String.sub src start (!pos - start) in
        (match int_of_string_opt text with
        | Some v -> emit_at (Token.INT_LIT v) l0 c0
        | None -> error l0 c0 "integer literal %s is out of range" text)
    | c when is_ident_start c ->
        let start = !pos and l0 = !line and c0 = !col in
        while is_ident_char (peek 0) do
          advance ()
        done;
        let text = String.sub src start (!pos - start) in
        emit_at
          (match keyword_of_string text with
          | Some kw -> kw
          | None -> Token.IDENT text)
          l0 c0
    | '(' -> emitn Token.LPAREN 1
    | ')' -> emitn Token.RPAREN 1
    | '{' -> emitn Token.LBRACE 1
    | '}' -> emitn Token.RBRACE 1
    | '[' -> emitn Token.LBRACKET 1
    | ']' -> emitn Token.RBRACKET 1
    | ';' -> emitn Token.SEMI 1
    | ',' -> emitn Token.COMMA 1
    | '.' -> emitn Token.DOT 1
    | '+' ->
        if peek 1 = '+' then emitn Token.PLUS_PLUS 2
        else if peek 1 = '=' then emitn Token.PLUS_ASSIGN 2
        else emitn Token.PLUS 1
    | '-' ->
        if peek 1 = '-' then emitn Token.MINUS_MINUS 2
        else if peek 1 = '=' then emitn Token.MINUS_ASSIGN 2
        else emitn Token.MINUS 1
    | '*' ->
        if peek 1 = '=' then emitn Token.STAR_ASSIGN 2 else emitn Token.STAR 1
    | '/' ->
        if peek 1 = '=' then emitn Token.SLASH_ASSIGN 2
        else emitn Token.SLASH 1
    | '%' ->
        if peek 1 = '=' then emitn Token.PERCENT_ASSIGN 2
        else emitn Token.PERCENT 1
    | '&' ->
        if peek 1 = '&' then emitn Token.AMP_AMP 2 else emitn Token.AMP 1
    | '|' ->
        if peek 1 = '|' then emitn Token.BAR_BAR 2 else emitn Token.BAR 1
    | '^' -> emitn Token.CARET 1
    | '!' ->
        if peek 1 = '=' then emitn Token.BANG_EQ 2 else emitn Token.BANG 1
    | '<' ->
        if peek 1 = '=' then emitn Token.LE 2
        else if peek 1 = '<' then emitn Token.SHL 2
        else emitn Token.LT 1
    | '>' ->
        if peek 1 = '=' then emitn Token.GE 2
        else if peek 1 = '>' then emitn Token.SHR 2
        else emitn Token.GT 1
    | '=' ->
        if peek 1 = '=' then emitn Token.EQ_EQ 2 else emitn Token.ASSIGN 1
    | c when c >= ' ' && c <= '~' ->
        error !line !col "unexpected character %c" c
    | c -> error !line !col "unexpected character \\x%02X" (Char.code c)
  done;
  toks := { Token.tok = Token.EOF; line = !line; col = !col } :: !toks;
  List.rev !toks
