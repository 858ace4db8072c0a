(** Compile-as-a-service transport, robust by construction: a
    Unix-domain socket and an optional TCP listener, both speaking the
    {!Frame} (NF1) framed protocol with per-connection pipelining —
    many in-flight requests tagged by frame id on one socket,
    responses written in completion order. Every connection opens with
    the NF1 hello.

    The server owns everything about {e serving}: the sockets, one
    reader thread per connection, a bounded request queue (admission
    control), [jobs] workers with crash supervision, per-request
    wall-clock deadlines layered on {!Guard} fuel, graceful drain, and
    status counters. What a request {e means} is the {!handler}'s
    business (the compile handler is [Nascent_harness.Service]); the
    server understands only the envelope:

    - ["id"]: echoed verbatim into the response;
    - ["op": "status"]: answered inline by the reader thread, so
      observability survives a full queue and busy workers;
    - ["deadline_ms"]: per-request wall budget override ([<= 0] means
      unbounded); the clock starts at admission, so queue wait counts.

    Server-generated responses: [{"code": "overloaded",
    "retryable": true}] (queue full), [{"code": "shutting-down",
    "retryable": true}] (draining), [{"code": "deadline"}] (wall budget
    or fuel exhausted — the worker is freed either way),
    [{"code": "internal"}] (handler exception; the worker survives),
    [{"code": "bad-request"}] (a frame payload that is not JSON),
    [{"code": "proto-mismatch"}] (a legacy newline-JSON or
    version-mismatched client on either listener — one clear unframed
    line, then close, counted as [proto_rejects]),
    [{"code": "frame-error"}] (torn/oversized frame; terminal for its
    connection only), [{"code": "io-timeout"}] (a frame left
    incomplete past [io_deadline_s] — the slow-loris bound).

    Network failure domain: a slow-loris peer cannot wedge a reader or
    leak a connection record ([io_deadline_s], counted [io_timeouts]);
    a peer that stops draining responses trips the kernel send timeout instead of
    parking a worker; frame decode errors close only their own
    connection (counted [frame_errors]). *)

(** What a worker is. OCaml 5 collects the minor heaps of all domains
    together, stopping every domain, so each extra domain — busy or
    idle — adds a minor heap and a participant to every collection, a
    cost every request pays. *)
type workers =
  | Domains
      (** one domain per job: for a handler that computes (the compile
          service), which needs the cores *)
  | Threads
      (** systhreads of the serving domain: for a handler that waits on
          sockets (the shard router). They add no heap and no
          collection participant. *)

type handler = {
  handle : Json.t -> Json.t;
      (** request object -> response object; must not block forever
          between ambient ticks (optimizer fixpoints tick). The server
          adds ["id"]. Exceptions become ["internal"] responses. *)
  status_extra : unit -> (string * Json.t) list;
      (** extra fields appended to ["op": "status"] responses (breaker
          states, cache counters, ...). Called from reader threads:
          must be thread-safe and fast. *)
  workers : workers;
      (** the kind of worker that runs [handle]. Only {!Domains}
          workers install the {!Guard} fuel and deadline around it:
          that ambient state is per-domain, and threads sharing one
          would pop each other's entries. A {!Threads} handler bounds
          its own waits; a request whose deadline passed in the queue
          is refused either way. *)
}

type config = {
  socket_path : string;
  tcp : (string * int) option;
      (** additional TCP listener ([host, port]; empty or ["*"] host
          binds every interface, port [0] picks an ephemeral port —
          see {!tcp_port}) *)
  jobs : int;
      (** workers (clamped to >= 1), of the handler's {!workers} kind:
          domains for the compile service, threads of one domain for
          the router. Each domain adds a minor heap and joins every
          stop-the-world collection; a thread does neither. *)
  queue_depth : int;  (** admission bound on queued requests *)
  restarts : int;
      (** supervisor restart count, echoed as the ["restarts"] status
          field — informational only *)
  io_deadline_s : float option;
      (** slow-loris bound: a frame that stays incomplete this long
          closes its connection; also the kernel send-timeout for
          response writes. [None] disables both. *)
}
(** Frames are capped at {!Frame.default_max_payload}, announced as
    ["max_frame_bytes"] in the hello-ack. *)

val default_config : socket_path:string -> config
(** 2 jobs, depth 64, no TCP, 10s I/O deadline. Two bounds are
    constants, not settings: a {!Domains} worker's request runs under
    a 30s wall budget (unless it carries ["deadline_ms"]) and 50M
    {!Guard} fuel. A connection with no frame started may stay silent
    indefinitely. *)

val error : ?id:Json.t -> code:string -> ?retryable:bool -> string -> Json.t
(** The error envelope, built here only: [{"id", "status": "error",
    "code", "retryable", "detail"}] in that order, ["id"] present when
    given (the server adds a handler response's id itself).
    [retryable] defaults to [false]. *)

type t

val create : config -> handler -> t

val tcp_port : t -> int option
(** The TCP listener's bound port, available once {!run} has bound it
    (before the UDS socket file appears — poll for the file, then read
    this). [None] when no TCP listener is configured or not yet
    bound. *)

exception Socket_in_use of string
(** Raised by {!run} when a live daemon already listens on the socket
    path; the payload is the path. *)

exception Tcp_in_use of string * int
(** Raised by {!run} when the TCP listener's [host, port] is already
    bound ([EADDRINUSE]). The TCP listener binds first, so nothing
    else has been bound and no socket file is left behind. *)

exception Listen_failed of string
(** Raised by {!run} when a listener cannot be set up for any other
    reason — an address not on this host ([EADDRNOTAVAIL]), a
    privileged port ([EACCES]), a host name that does not resolve, a
    socket path that cannot be bound. The payload is one line naming
    the listener and the reason. Nothing stays bound and [on_ready]
    never runs. *)

val socket_in_use : string -> bool
(** Whether a daemon answers a connect on this Unix socket path. A
    file nobody answers on (left by a [kill -9]) is stale, not in
    use; so is a path that cannot be connected to at all. *)

val resolve_host : string -> Unix.inet_addr
(** A host name or numeric address, for a listener or a client alike;
    [""] and ["*"] mean every interface. Raises [Not_found] for a name
    that does not resolve. *)

val run : ?on_ready:(unit -> unit) -> t -> unit
(** Serve until {!stop}. Binds (replacing a stale socket file, but
    raising {!Socket_in_use} before binding anything if a live daemon
    owns it, {!Tcp_in_use} if the TCP port is taken, or
    {!Listen_failed} if a listener cannot be set up otherwise; the socket
    appearing is the ready signal, and [on_ready] runs once every
    listener is bound), accepts in the calling thread,
    and on {!stop} drains — sheds new work, finishes and
    answers {e every} admitted request, joins workers and readers,
    removes the socket file. Nothing survives the process: a request
    admitted by a daemon that dies unanswered is recomputed by the
    client's retry, which is safe because compiles are pure.

    Memory watchdog (see {!Guard.set_mem_budget}): past 80% of the
    budget new admissions are refused with
    [{"code": "overloaded", "retryable": true}]; a request whose
    ticking crosses the full budget is aborted with
    [{"code": "mem-pressure", "retryable": true}] instead of letting
    the OS OOM-kill the daemon. *)

val stop : t -> unit
(** Request a graceful drain. Lock-free (a flag and a self-pipe
    write): safe to call from a signal handler or any thread.
    Idempotent. *)

val stopping : t -> bool
val uptime_s : t -> float

(** Client side of the protocol — shared by [nascentc client], the
    bench load target and the tests. *)
module Client : sig
  type address = Uds of string | Tcp of string * int

  val parse_address : string -> address
  (** ["host:port"] (no slash, numeric suffix) is TCP; anything else is
      a Unix socket path. *)

  val address_to_string : address -> string

  exception Handshake of string
  (** The server rejected (or garbled) the NF1 hello: a protocol
      mismatch, not a transient. *)

  type connection

  val connect : string -> connection
  (** [connect_addr (Uds path)]. *)

  val connect_addr : ?recv_timeout_s:float -> address -> connection
  (** Connect to either transport and perform the NF1 hello handshake
      before returning (raises {!Handshake} on a protocol mismatch,
      [Unix.Unix_error] as [Unix.connect] does). [recv_timeout_s]
      bounds every wait for response bytes, the hello-ack included:
      expiry raises [Unix_error (ETIMEDOUT, _, _)] instead of hanging
      forever on a stalled peer. *)

  val close : connection -> unit

  val with_conn : string -> (connection -> 'a) -> 'a

  val with_addr : ?recv_timeout_s:float -> address -> (connection -> 'a) -> 'a

  val pipeline_send : connection -> Json.t -> int
  (** Send a request tagged with a fresh frame id (returned) without
      waiting — many may be in flight. *)

  val pipeline_recv :
    connection ->
    ( (int * Json.t) option,
      [ `Garbled of string | `Frame of Frame.error ] )
    result
  (** The next response, in server completion order (match it to a
      {!pipeline_send} tag). [Ok None] on EOF. *)

  val exchange :
    ?recv_timeout_s:float ->
    connection ->
    Json.t ->
    ( Json.t,
      [ `Garbled of string | `Closed | `Frame of Frame.error ] )
    result
  (** One request/response exchange with the failure modes kept
      distinct: [`Closed] (EOF before a complete response — retryable),
      [`Garbled] (a response arrived but does not parse — a protocol
      bug), [`Frame] (a response frame failed to decode). Unix errors
      propagate. [recv_timeout_s], when given, replaces the receive
      budget set at connect, for this exchange and the ones after it
      on the same connection. *)

  val request : connection -> Json.t -> (Json.t, string) result
  (** {!exchange} with errors rendered as strings. *)

  val request_retry :
    ?policy:Retry.policy ->
    ?sleep:(float -> unit) ->
    ?max_elapsed_s:float ->
    ?recv_timeout_s:float ->
    seed:int ->
    string ->
    Json.t ->
    (Json.t, string) result
  (** One-shot exchange on a fresh connection — the string address is
      parsed with {!parse_address}, so both ["/path/sock"] and
      ["host:port"] work — with {!Retry} backoff (deterministic jitter
      from [seed]). Retryable: connection refusals, responses marked
      [retryable], a connection torn down mid-exchange
      (EPIPE/ECONNRESET/EOF before a response), a receive that
      outwaits [recv_timeout_s], and a CRC-torn response frame —
      racing a draining or restarting daemon (or a hostile network) is
      safe because requests are idempotent (compiles are memoized,
      status is read-only). Fatal: a response that arrives but fails
      to parse, and a {!Handshake} protocol mismatch. Every attempt
      re-resolves and re-connects the address, so the schedule rides
      through a supervised restart; [?max_elapsed_s] caps the total
      wait (see {!Retry.run}). *)
end
