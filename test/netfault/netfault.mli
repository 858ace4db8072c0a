(** Deterministic, seeded network fault injection.

    Every fault class maps to a detection at the frame/transport layer
    and a recovery at the client/router layer — chaos runs assert both
    sides of that table:

    {v
      class              detection                     recovery
      torn-frame         payload CRC mismatch          reconnect + retry
      truncated-write    EOF mid-frame (never parsed)  reconnect + retry
      delayed-bytes      mid-frame read deadline       reconnect + retry
      reset-mid-exchange EOF before response           retry (idempotent)
      garbage-frame      magic check (proto reject)    reconnect + retry
      oversized-frame    payload length cap            reconnect + retry
      stalled-reader     recv deadline / write budget  reconnect + retry
    v}

    All behaviour is a pure function of [spec] (class + seed) and the
    exchange/connection index, so a failing chaos run replays exactly. *)

type cls =
  | Torn_frame
  | Truncated_write
  | Delayed_bytes
  | Reset_mid_exchange
  | Garbage_frame
  | Oversized_frame
  | Stalled_reader

type spec = { cls : cls; seed : int }

val all_classes : cls list
val cls_name : cls -> string

val parse : string -> (spec, string) result
(** Parse ["CLASS"] or ["CLASS:SEED"], e.g. ["torn-frame:7"]. The seed
    defaults to 0. *)

val to_string : spec -> string

val should_fault : spec -> int -> bool
(** [should_fault spec n]: whether the [n]th connection (0-based) gets
    the fault. Deterministic in [(spec.seed, n)]; roughly one in three
    connections is faulted, so a retrying client always reaches a clean
    connection within a few attempts. *)

val mangle : spec -> string -> string
(** Damage an outbound byte string (a client's framed request stream)
    according to the class: flip a seeded payload byte (torn frame),
    drop the tail (truncated write), prepend garbage bytes (garbage
    frame), forge a header declaring an absurd payload length
    (oversized frame). Classes that damage timing rather than bytes
    (delayed bytes, reset, stalled reader) return the string intact. *)

(** A send schedule for (possibly mangled) bytes: how a faulty peer
    dribbles, delays, or cuts the transmission. *)
type step =
  | Write of string
  | Delay_s of float
  | Close_now  (** stop sending and close the socket at this point *)

val plan : spec -> delay_s:float -> string -> step list
(** The faulted transmission schedule for one request's bytes.
    [delay_s] is the stall injected by [Delayed_bytes] (choose it
    longer than the server's mid-frame read deadline to force the
    detection). Deterministic in [spec]. *)

val reader : spec -> data:string -> bytes -> int -> int -> int
(** An in-process faulty reader over a fixed byte string, with the
    shape of [Unix.read fd]: returns seeded short reads (1–4 bytes),
    raises [Unix_error (EINTR, _, _)] at seeded points, and returns 0
    (EOF) at the end — early, mid-frame, for [Truncated_write] and
    [Reset_mid_exchange]. Byte damage is [mangle]'s job; compose the
    two to drive a framed reader through every partial-I/O schedule. *)

val writer : spec -> out:Buffer.t -> bytes -> int -> int -> int
(** The write-side twin: accepts seeded short writes (1–4 bytes at a
    time) into [out] and raises [EINTR] at seeded points — for driving
    {!Nascent_support.Frame.write_all} through hostile schedules. Never loses bytes. *)

val proxy :
  listen:Unix.sockaddr ->
  upstream:Unix.sockaddr ->
  ?stop:(unit -> bool) ->
  ?delay_s:float ->
  ?on_listen:(Unix.sockaddr -> unit) ->
  spec ->
  unit
(** Run a chaos proxy: accept connections on [listen], pipe bytes to
    and from [upstream], and apply the fault (per {!should_fault}) to
    faulted connections — client-to-upstream bytes are mangled/cut per
    the class; [Stalled_reader] swallows the upstream's response and
    [Reset_mid_exchange] cuts the connection once the request has been
    relayed. [delay_s] (default 3.0) is the [Delayed_bytes] stall.
    [on_listen] fires once the socket is bound and listening, with the
    actual bound address (so callers may listen on port 0). Blocks
    until [stop] returns true (polled between accepts). Connections
    are handled on threads. *)
