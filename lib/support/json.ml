(* Minimal JSON for the compile-service wire protocol (one value per
   line, RFC 8259 subset). The tree deliberately has no JSON library;
   the optimizer's stats records hand-roll their output, but the server
   must PARSE untrusted request lines, and parsing is where hand-rolled
   code grows holes — so the protocol gets a real recursive-descent
   parser with a depth bound, full string escapes, and precise error
   positions, and every caller shares it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string (* byte offset, message *)

(* Nesting bound: a hostile request of 100k '[' characters must produce
   an error response, not a stack overflow in a worker domain. *)
let max_depth = 512

(* --- parsing ----------------------------------------------------------- *)

(* The parser allocates only what it returns: no option per byte, and a
   string's bytes are copied once, straight into a result sized
   exactly. *)

type cursor = { s : string; mutable i : int }

let fail c msg = raise (Parse_error (c.i, msg))
let at_end c = c.i >= String.length c.s

(* The current byte; callers check [at_end] first. *)
let cur c = String.unsafe_get c.s c.i

let skip_ws c =
  while
    c.i < String.length c.s
    && match cur c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  if (not (at_end c)) && cur c = ch then c.i <- c.i + 1
  else fail c (Printf.sprintf "expected %C" ch)

let literal c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else fail c ("expected " ^ word)

let hex_digit c =
  if at_end c then fail c "truncated \\u escape";
  let ch = cur c in
  c.i <- c.i + 1;
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "bad hex digit in \\u escape"

let hex4 c =
  let a = hex_digit c in
  let b = hex_digit c in
  let d = hex_digit c in
  let e = hex_digit c in
  (a lsl 12) lor (b lsl 8) lor (d lsl 4) lor e

(* Write byte [ch] at output offset [o] when there is an output; the
   next offset either way. *)
let put dst o ch =
  (match dst with Some b -> Bytes.unsafe_set b o ch | None -> ());
  o + 1

(* Encode one Unicode scalar value as UTF-8 at [o]. *)
let put_utf8 dst o u =
  if u < 0x80 then put dst o (Char.chr u)
  else if u < 0x800 then
    let o = put dst o (Char.chr (0xC0 lor (u lsr 6))) in
    put dst o (Char.chr (0x80 lor (u land 0x3F)))
  else if u < 0x10000 then
    let o = put dst o (Char.chr (0xE0 lor (u lsr 12))) in
    let o = put dst o (Char.chr (0x80 lor ((u lsr 6) land 0x3F))) in
    put dst o (Char.chr (0x80 lor (u land 0x3F)))
  else
    let o = put dst o (Char.chr (0xF0 lor (u lsr 18))) in
    let o = put dst o (Char.chr (0x80 lor ((u lsr 12) land 0x3F))) in
    let o = put dst o (Char.chr (0x80 lor ((u lsr 6) land 0x3F))) in
    put dst o (Char.chr (0x80 lor (u land 0x3F)))

(* The end of the run of bytes from [j] that decode to themselves. *)
let rec plain_run s n j =
  if
    j < n
    &&
    let ch = String.unsafe_get s j in
    ch <> '"' && ch <> '\\' && ch >= ' '
  then plain_run s n (j + 1)
  else j

(* One string body, from just past the opening quote to just past the
   closing one. A run of bytes that need no decoding is copied in one
   blit; each escape is decoded in place. With [dst = None] it only
   validates and returns the decoded length — every error is raised
   from that pass, at the offset it always had; with [Some b] it
   writes the decoded bytes into [b], which that length sized. *)
let rec decode_string c dst o =
  let s = c.s in
  let start = c.i in
  c.i <- plain_run s (String.length s) start;
  let run = c.i - start in
  (match dst with Some b -> Bytes.blit_string s start b o run | None -> ());
  let o = o + run in
  if at_end c then fail c "unterminated string"
  else
    match cur c with
    | '"' ->
        c.i <- c.i + 1;
        o
    | '\\' ->
        c.i <- c.i + 1;
        if at_end c then fail c "truncated escape";
        let e = cur c in
        c.i <- c.i + 1;
        let o =
          match e with
          | '"' -> put dst o '"'
          | '\\' -> put dst o '\\'
          | '/' -> put dst o '/'
          | 'b' -> put dst o '\b'
          | 'f' -> put dst o '\012'
          | 'n' -> put dst o '\n'
          | 'r' -> put dst o '\r'
          | 't' -> put dst o '\t'
          | 'u' ->
              let u = hex4 c in
              if u >= 0xD800 && u <= 0xDBFF then begin
                (* high surrogate: a \uXXXX low surrogate must follow *)
                expect c '\\';
                expect c 'u';
                let lo = hex4 c in
                if lo < 0xDC00 || lo > 0xDFFF then fail c "unpaired surrogate"
                else put_utf8 dst o (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else if u >= 0xDC00 && u <= 0xDFFF then fail c "unpaired surrogate"
              else put_utf8 dst o u
          | _ -> fail c "bad escape"
        in
        decode_string c dst o
    | _ -> fail c "raw control byte in string"

(* Every escape is longer than what it decodes to, so a decoded length
   equal to the raw one means there were none: one [String.sub].
   Otherwise a second pass decodes into a string of exactly that
   length. *)
let parse_string c =
  expect c '"';
  let start = c.i in
  let len = decode_string c None 0 in
  if len = c.i - start - 1 then String.sub c.s start len
  else begin
    let b = Bytes.create len in
    let stop = c.i in
    c.i <- start;
    ignore (decode_string c (Some b) 0);
    assert (c.i = stop);
    Bytes.unsafe_to_string b
  end

let parse_number c =
  let start = c.i in
  let is_float = ref false in
  let adv () = c.i <- c.i + 1 in
  let at ch = (not (at_end c)) && cur c = ch in
  let digits () =
    while (not (at_end c)) && match cur c with '0' .. '9' -> true | _ -> false do
      adv ()
    done
  in
  if at '-' then adv ();
  digits ();
  if at '.' then begin
    is_float := true;
    adv ();
    digits ()
  end;
  if at 'e' || at 'E' then begin
    is_float := true;
    adv ();
    if at '+' || at '-' then adv ();
    digits ()
  end;
  let text = String.sub c.s start (c.i - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c "malformed number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
        (* out of int range: fall back to float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail c "malformed number")

(* Whether the next byte is [ch], past any whitespace already skipped. *)
let next_is c ch = (not (at_end c)) && cur c = ch

let rec parse_value c ~depth =
  if depth > max_depth then fail c "nesting too deep";
  skip_ws c;
  if at_end c then fail c "unexpected end of input";
  match cur c with
  | '{' ->
      c.i <- c.i + 1;
      skip_ws c;
      if next_is c '}' then begin
        c.i <- c.i + 1;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c ~depth:(depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws c;
          if next_is c ',' then begin
            c.i <- c.i + 1;
            members ()
          end
          else if next_is c '}' then c.i <- c.i + 1
          else fail c "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | '[' ->
      c.i <- c.i + 1;
      skip_ws c;
      if next_is c ']' then begin
        c.i <- c.i + 1;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c ~depth:(depth + 1) in
          items := v :: !items;
          skip_ws c;
          if next_is c ',' then begin
            c.i <- c.i + 1;
            elements ()
          end
          else if next_is c ']' then c.i <- c.i + 1
          else fail c "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected character %C" ch)

let parse s =
  let c = { s; i = 0 } in
  match
    let v = parse_value c ~depth:0 in
    skip_ws c;
    if c.i <> String.length s then fail c "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (i, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" i msg)

(* --- printing ---------------------------------------------------------- *)

(* Printing measures first, then writes into a string of exactly that
   length: no growing buffer, no final copy. A caller that frames the
   text (Frame.encode_json) writes it straight after its own header. *)

(* Printed width of one byte inside a string literal. *)
let escaped_width ch =
  match ch with
  | '"' | '\\' | '\n' | '\r' | '\t' | '\b' | '\012' -> 2
  | ch when Char.code ch < 0x20 -> 6
  | _ -> 1

let string_length s =
  let n = ref 2 in
  for i = 0 to String.length s - 1 do
    n := !n + escaped_width (String.unsafe_get s i)
  done;
  !n

let int_length n =
  let rec digits n acc = if n > -10 && n < 10 then acc else digits (n / 10) (acc + 1) in
  digits n 1 + if n < 0 then 1 else 0

let float_text f = Printf.sprintf "%.12g" f

let rec length = function
  | Null -> 4
  | Bool b -> if b then 4 else 5
  | Int n -> int_length n
  | Float f ->
      (* nan/inf are not JSON: they print as null *)
      if Float.is_finite f then String.length (float_text f) else 4
  | Str s -> string_length s
  | List [] | Obj [] -> 2
  | List xs -> List.fold_left (fun acc x -> acc + length x + 1) 1 xs
  | Obj fields ->
      List.fold_left (fun acc (k, v) -> acc + string_length k + length v + 2) 1 fields

let hex = "0123456789abcdef"

(* Each blit writes at [o] and returns the offset just past what it
   wrote. *)
let blit_char b o ch =
  Bytes.unsafe_set b o ch;
  o + 1

let blit_text b o s =
  Bytes.blit_string s 0 b o (String.length s);
  o + String.length s

let blit_int b o n =
  let len = int_length n in
  if n < 0 then Bytes.unsafe_set b o '-';
  (* digits from the right; [n mod 10] is negative for negative [n], and
     staying on [n]'s side of zero keeps [min_int] exact *)
  let rec go n i =
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + abs (n mod 10)));
    if n <= -10 || n >= 10 then go (n / 10) (i - 1)
  in
  go n (o + len - 1);
  o + len

(* A run of bytes that print as themselves is copied in one blit. *)
let blit_string b o s =
  let n = String.length s in
  let o = ref (blit_char b o '"') in
  let run = ref 0 (* start of the pending run *) in
  for i = 0 to n - 1 do
    let ch = String.unsafe_get s i in
    if escaped_width ch > 1 then begin
      Bytes.blit_string s !run b !o (i - !run);
      o := !o + (i - !run);
      run := i + 1;
      Bytes.unsafe_set b !o '\\';
      match ch with
      | '"' | '\\' | '\n' | '\r' | '\t' | '\b' | '\012' ->
          let e =
            match ch with
            | '\n' -> 'n'
            | '\r' -> 'r'
            | '\t' -> 't'
            | '\b' -> 'b'
            | '\012' -> 'f'
            | ch -> ch
          in
          Bytes.unsafe_set b (!o + 1) e;
          o := !o + 2
      | ch ->
          Bytes.blit_string "u00" 0 b (!o + 1) 3;
          Bytes.unsafe_set b (!o + 4) hex.[Char.code ch lsr 4];
          Bytes.unsafe_set b (!o + 5) hex.[Char.code ch land 15];
          o := !o + 6
    end
  done;
  Bytes.blit_string s !run b !o (n - !run);
  blit_char b (!o + (n - !run)) '"'

let rec blit_value b o = function
  | Null -> blit_text b o "null"
  | Bool v -> blit_text b o (if v then "true" else "false")
  | Int n -> blit_int b o n
  | Float f -> blit_text b o (if Float.is_finite f then float_text f else "null")
  | Str s -> blit_string b o s
  | List [] -> blit_text b o "[]"
  | List (x :: xs) ->
      let o = blit_value b (blit_char b o '[') x in
      let o = List.fold_left (fun o x -> blit_value b (blit_char b o ',') x) o xs in
      blit_char b o ']'
  | Obj [] -> blit_text b o "{}"
  | Obj (f :: fs) ->
      let field o (k, v) = blit_value b (blit_char b (blit_string b o k) ':') v in
      let o = field (blit_char b o '{') f in
      let o = List.fold_left (fun o f -> field (blit_char b o ',') f) o fs in
      blit_char b o '}'

let blit v b off = ignore (blit_value b off v)

let to_string v =
  let b = Bytes.create (length v) in
  blit v b 0;
  Bytes.unsafe_to_string b

(* --- accessors --------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_int = function Int n -> Some n | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let str_member k j = Option.bind (member k j) to_str
let int_member k j = Option.bind (member k j) to_int
let bool_member k j = Option.bind (member k j) to_bool
let float_member k j = Option.bind (member k j) to_float
