(* Hand-written lexer for MiniF.

   Newlines are not significant; `!` and `#` start line comments.
   Identifiers and keywords are case-insensitive (lowered on read),
   matching Fortran convention. *)

exception Error of string * Srcloc.pos

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable tok_line : int; (* start of the token last scanned *)
  mutable tok_col : int;
}

let make src = { src; pos = 0; line = 1; col = 1; tok_line = 1; tok_col = 1 }

(* The byte at [pos] (and the one after it), or '\000' past the end:
   peeking allocates nothing. A NUL in the source is an unexpected
   character, so the sentinel never stands in for a token; the places
   that must tell the end from a NUL (a comment, the token start) test
   [at_end]. *)
let at_end lx = lx.pos >= String.length lx.src
let peek lx = if at_end lx then '\000' else String.unsafe_get lx.src lx.pos

let peek2 lx =
  if lx.pos + 1 < String.length lx.src then String.unsafe_get lx.src (lx.pos + 1)
  else '\000'

let advance lx =
  if not (at_end lx) then
    if String.unsafe_get lx.src lx.pos = '\n' then begin
      lx.line <- lx.line + 1;
      lx.col <- 1
    end
    else lx.col <- lx.col + 1;
  lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek lx with
  | ' ' | '\t' | '\r' | '\n' ->
      advance lx;
      skip_ws lx
  | '!' | '#' ->
      while (not (at_end lx)) && peek lx <> '\n' do
        advance lx
      done;
      skip_ws lx
  | _ -> ()

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let lex_number lx =
  let start = lx.pos in
  let digits () =
    while is_digit (peek lx) do
      advance lx
    done
  in
  digits ();
  let is_real =
    (* A '.' starts a fraction only when followed by a digit, so `1.` in a
       dim spec like `a(1:n)` can never arise (we require digits). *)
    if peek lx = '.' && is_digit (peek2 lx) then begin
      advance lx;
      digits ();
      if peek lx = 'e' || peek lx = 'E' then begin
        advance lx;
        if peek lx = '+' || peek lx = '-' then advance lx;
        digits ()
      end;
      true
    end
    else false
  in
  let text = String.sub lx.src start (lx.pos - start) in
  if is_real then Token.REAL (float_of_string text)
  else Token.INT (int_of_string text)

let lex_ident lx =
  let start = lx.pos in
  while is_alnum (peek lx) do
    advance lx
  done;
  let text = String.sub lx.src start (lx.pos - start) in
  let text =
    if String.exists (fun c -> c >= 'A' && c <= 'Z') text then String.lowercase_ascii text
    else text
  in
  match Token.keyword_of_string text with
  | Some kw -> kw
  | None -> Token.IDENT text

(* Scans the next token, leaving its start position in [tok_line] and
   [tok_col]: nothing is allocated but a token's payload. *)
let scan lx : Token.t =
  skip_ws lx;
  lx.tok_line <- lx.line;
  lx.tok_col <- lx.col;
  if at_end lx then Token.EOF
  else
    let c = peek lx in
    let tok =
      if is_digit c then lex_number lx
      else if is_alpha c then lex_ident lx
      else begin
        advance lx;
        match c with
        | '+' -> Token.PLUS
        | '-' -> Token.MINUS
        | '*' -> Token.STAR
        | '/' ->
            if peek lx = '=' then begin
              advance lx;
              Token.NE
            end
            else Token.SLASH
        | '=' -> Token.EQ
        | '<' ->
            if peek lx = '=' then begin
              advance lx;
              Token.LE
            end
            else Token.LT
        | '>' ->
            if peek lx = '=' then begin
              advance lx;
              Token.GE
            end
            else Token.GT
        | '(' -> Token.LPAREN
        | ')' -> Token.RPAREN
        | ',' -> Token.COMMA
        | ':' -> Token.COLON
        | c ->
            raise
              (Error
                 ( Printf.sprintf "unexpected character %C" c,
                   { Srcloc.line = lx.tok_line; col = lx.tok_col } ))
      end
    in
    tok

(* Tokens and their start positions, in chunks of [chunk] slots: a
   chunk is small enough for the minor heap, where a whole-program
   array would go straight to the major heap and stay there until a
   major cycle reclaims it. *)
let chunk = 256

type tokens = {
  toks : Token.t array array; (* token i is toks.(i / chunk).(i mod chunk) *)
  lines : int array array; (* and starts at that line ... *)
  cols : int array array; (* ... and column *)
  count : int; (* tokens, the last one EOF *)
}

(* The whole source is lexed before parsing starts, so a lexical error
   anywhere is reported ahead of any syntax error. *)
let tokens src : tokens =
  let lx = make src in
  let rec go n t l c full =
    let tok = scan lx in
    let k = n mod chunk in
    t.(k) <- tok;
    l.(k) <- lx.tok_line;
    c.(k) <- lx.tok_col;
    match tok with
    | Token.EOF -> (n + 1, List.rev ((t, l, c) :: full))
    | _ when k = chunk - 1 ->
        go (n + 1) (Array.make chunk Token.EOF) (Array.make chunk 0) (Array.make chunk 0)
          ((t, l, c) :: full)
    | _ -> go (n + 1) t l c full
  in
  let count, chunks =
    go 0 (Array.make chunk Token.EOF) (Array.make chunk 0) (Array.make chunk 0) []
  in
  let field f = Array.of_list (List.map f chunks) in
  {
    toks = field (fun (t, _, _) -> t);
    lines = field (fun (_, l, _) -> l);
    cols = field (fun (_, _, c) -> c);
    count;
  }

let count t = t.count
let token t i = t.toks.(i / chunk).(i mod chunk)

let pos_of t i : Srcloc.pos =
  { line = t.lines.(i / chunk).(i mod chunk); col = t.cols.(i / chunk).(i mod chunk) }

let tokenize src =
  let t = tokens src in
  List.init t.count (fun i -> (token t i, pos_of t i))
