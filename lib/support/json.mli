(** Minimal JSON for the compile-service wire protocol.

    One value per line: {!parse} accepts exactly one RFC 8259 value
    (full string escapes including surrogate pairs, a nesting bound
    against hostile input) and {!to_string} prints a single line with
    no trailing newline. Numbers parse to [Int] when they are integral
    and fit, [Float] otherwise; non-finite floats print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an
    error. Never raises — malformed input, truncation, raw control
    bytes in strings, unpaired surrogates and nesting beyond 512
    levels all return [Error] with a byte offset. *)

val parse_sub : string -> off:int -> len:int -> (t, string) result
(** [parse_sub s ~off ~len] is [parse (String.sub s off len)] without
    the copy: it reads no byte of [s] outside the slice, counts error
    offsets from [off], and the tree it returns shares no bytes with
    [s], so [s] may be a buffer that is overwritten later.
    @raise Invalid_argument if the slice is not within [s]. *)

val to_string : t -> string
(** Compact single-line rendering (the wire format), printed into a
    string of exactly its length. *)

val length : t -> int
(** [String.length (to_string v)], measured without printing. *)

val blit : t -> bytes -> int -> unit
(** [blit v b off] writes [to_string v] into [b] from [off]; [b] must
    hold [length v] bytes there. Lets a caller print a value straight
    into a larger buffer (a frame after its header) with no
    intermediate string. *)

(** {2 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_str : t -> string option

val to_float : t -> float option
(** Accepts [Int] too (JSON does not distinguish). *)

val str_member : string -> t -> string option
val int_member : string -> t -> int option
val bool_member : string -> t -> bool option
val float_member : string -> t -> float option
