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
}

let make src = { src; pos = 0; line = 1; col = 1 }

let cur_pos lx : Srcloc.pos = { line = lx.line; col = lx.col }

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

(* Returns the next token together with its start position. *)
let next lx : Token.t * Srcloc.pos =
  skip_ws lx;
  let pos = cur_pos lx in
  if at_end lx then (Token.EOF, pos)
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
        | c -> raise (Error (Printf.sprintf "unexpected character %C" c, pos))
      end
    in
    (tok, pos)

let tokenize src =
  let lx = make src in
  let rec go acc =
    let tok, pos = next lx in
    match tok with
    | Token.EOF -> List.rev ((tok, pos) :: acc)
    | _ -> go ((tok, pos) :: acc)
  in
  go []
