(** Hand-written lexer for MiniF.

    Newlines are not significant; [!] and [#] start line comments;
    identifiers and keywords are case-insensitive (Fortran
    convention). *)

exception Error of string * Srcloc.pos

type tokens
(** A whole token stream, written into arrays: no tuple, position
    record or list cell per token. *)

val tokens : string -> tokens
(** Lex the whole source.
    @raise Error on an unexpected character. *)

val count : tokens -> int
(** Number of tokens; the last one is [EOF]. *)

val token : tokens -> int -> Token.t

val pos_of : tokens -> int -> Srcloc.pos
(** The start position of token [i]. *)

val tokenize : string -> (Token.t * Srcloc.pos) list
(** {!tokens} as a list, ending with [EOF].
    @raise Error on an unexpected character. *)
