(** NF1 — the compile service's length-prefixed framed wire protocol,
    spoken on both the Unix socket and the TCP listener.

    A frame is a fixed 20-byte header followed by the payload:

    {v
      offset  size  field
      0       3     magic "NF1"
      3       1     protocol version (currently 1)
      4       8     request id, unsigned big-endian
      12      4     payload length, unsigned big-endian
      16      4     CRC32 (IEEE) of the payload, big-endian
      20      len   payload bytes (one JSON request or response)
    v}

    The id is the pipelining tag: many requests may be in flight on one
    connection, each response frame carries the id of the request it
    answers, and responses may arrive in any order. The CRC plus the
    length field make every fault class detectable at the frame layer:
    a torn or bit-flipped frame fails the CRC, a truncated stream ends
    mid-frame (visible via {!mid_frame}, never parsed as a request), a
    garbage prefix fails the magic, and a forged header past
    [max_payload] is rejected {e before} any payload is buffered. All
    decoder errors are terminal for the stream — framing offers no
    resync point, so the connection must be closed. *)

val version : int
(** The protocol version this build speaks (1). *)

val header_bytes : int
(** Fixed header size (20). *)

val default_max_payload : int
(** Default payload cap, 4 MiB. *)

val encode : id:int -> string -> string
(** One encoded frame. [id] must be non-negative.
    @raise Invalid_argument on a negative id. *)

val encode_json : id:int -> Json.t -> string
(** [encode ~id (Json.to_string j)], with the JSON printed straight
    into the frame: one allocation, sized up front.
    @raise Invalid_argument on a negative id. *)

type frame = { id : int; payload : string }

type error =
  | Bad_magic  (** the stream does not start with "NF1" *)
  | Bad_version of int  (** a frame header with an unknown version *)
  | Oversized of int  (** declared payload length beyond the cap *)
  | Crc_mismatch  (** payload checksum does not match the header *)
  | Bad_id  (** id field does not fit a non-negative OCaml int *)

val error_name : error -> string
val pp_error : Format.formatter -> error -> unit

(** {2 Incremental decoder}

    Feed bytes as they arrive (in any fragmentation — one byte at a
    time is fine), pull complete frames out. After an [Error] the
    decoder is poisoned: every later {!next} returns the same error. *)

type decoder

val decoder : ?max_payload:int -> unit -> decoder

val feed : decoder -> string -> off:int -> len:int -> unit
val feed_bytes : decoder -> bytes -> off:int -> len:int -> unit

val next : decoder -> (frame option, error) result
(** The next complete frame; [Ok None] means more bytes are needed. *)

type view = { view_id : int; src : string; off : int; len : int }
(** A complete frame where it lies in the decoder's buffer: its payload
    is bytes [off] to [off + len - 1] of [src], its CRC already checked.
    [src] is the buffer itself, so a view is valid only until the next
    {!feed} or {!feed_bytes} on its decoder, which may move or overwrite
    those bytes; whatever outlives that must be copied out first. *)

val next_view : decoder -> (view option, error) result
(** {!next} without the payload copy: a daemon parses each request
    where it lies ({!Json.parse_sub}), so its bytes are copied only
    into the parsed tree. *)

val mid_frame : decoder -> bool
(** Some bytes of an incomplete frame (or header) are buffered — the
    server's mid-frame read deadline keys off this: a peer may be
    silent between frames for as long as the idle budget allows, but
    once a frame has started it must finish within the I/O budget. *)

(** {2 Blocking helpers with injectable I/O}

    [read] and [write] have the shape of [Unix.read]/[Unix.write] on a
    connected socket. Both helpers retry [EINTR] and short transfers —
    a signal landing mid-frame must never tear the stream — and the
    injectable functions let tests (and their seeded fault injector)
    drive every partial-I/O schedule deterministically. *)

val read_frame :
  ?buf:bytes ->
  read:(bytes -> int -> int -> int) ->
  decoder ->
  (frame option, error) result
(** Pump [read] into [buf] until a complete frame, EOF, or a decode
    error. A connection that reads many frames passes its own [buf] so
    refills allocate nothing; without one, each call allocates 8 KiB. A
    truncated stream is not a decode error — nothing was misparsed —
    so EOF returns [Ok None] whether it lands cleanly between frames
    or mid-frame; the caller distinguishes the two via {!mid_frame}.
    Raises whatever [read] raises, except [EINTR], which is retried. *)

val write_all :
  write:(bytes -> int -> int -> int) -> string -> unit
(** Write the whole string, retrying short writes and [EINTR]. *)

(** {2 Hello handshake}

    The first frame on a connection (each direction) is a hello
    carrying the protocol version, so a mismatched peer gets a clear
    error instead of undefined behaviour deeper in the stream. *)

val hello : unit -> Json.t
(** [{"hello": "nf1", "version": 1}]. *)

val check_hello : Json.t -> (int, string) result
(** Validate a received hello payload; [Ok version] on a version this
    build speaks, [Error reason] otherwise (wrong shape, wrong
    version). *)
