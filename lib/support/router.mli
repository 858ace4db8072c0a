(** Health-checked consistent-hash shard router.

    N [nascentd] shard processes behind one router: requests are routed
    by a consistent hash of the fields that determine the memo cache
    key (source + compile configuration), so each shard's cache stays
    hot for its slice of the keyspace and shards share nothing. The
    router is itself served by {!Server} (it is just a {!Server.handler}
    that forwards), so it inherits admission control, the framed TCP
    transport, drain, and inline status for free.

    Health: a probe thread sends each shard a [status] request every
    [probe_interval_s]; consecutive failures past the {!Breaker}
    threshold eject the shard from routing, and a later successful
    probe re-admits it (the probe interval is the cooldown). Forward
    failures feed the same breaker, so a [kill -9]'d shard is ejected
    mid-burst, before the next probe tick.

    Failover: a forward that fails at the transport level (refused,
    reset, EOF before response, receive timeout) moves to the next
    distinct shard on the hash ring — safe because requests are
    idempotent (compiles are pure and memoized, status/burn read-only;
    a killed shard's admitted work is simply recomputed elsewhere).
    A shard's {e response} is returned as-is, error or not: an
    overloaded shard is alive, and its backpressure belongs to the
    client. Only when every candidate fails does the client see
    [{"code": "no-shard", "retryable": true}].

    Connections: forwards reuse their shard connections. Each shard has
    a list of idle connections; a forward takes one (or connects when
    the list is empty), does one exchange on it, and puts it back only
    after a complete, parseable response — a [Closed], frame error,
    garbled response, receive timeout or exception closes it. One
    forward uses a connection at a time, so the pool never holds more
    connections than the serving {!Server}'s workers times the shard
    count; there is no other bound. An idle connection that fails with
    EOF before the response, EPIPE or ECONNRESET (a restarted shard)
    gets one fresh connect to the same shard before the breaker hears
    of it; a failure on a fresh connection is a shard failure. Health
    probes always connect fresh. Forwards count the connections they
    open as [connects] in [status]. *)

type shard = { name : string; address : Server.Client.address }

type t

val create :
  ?threshold:int ->
  ?cooldown_s:float ->
  ?probe_interval_s:float ->
  ?forward_timeout_s:float ->
  shards:shard list ->
  unit ->
  t
(** The ring has 64 points per shard. [threshold]/[cooldown_s]
    parameterize the health {!Breaker} (defaults 3 / 2.0);
    [probe_interval_s] (default 0.5) is the probe cadence, and each
    probe waits at most 2 s for its answer; [forward_timeout_s]
    (default 35.0) is the receive budget for a forwarded request
    carrying no ["deadline_ms"] of its own — one that does gets that
    deadline plus slack instead.
    @raise Invalid_argument on an empty shard list. *)

val shard_key : Json.t -> string
(** The routing key of a request: its content fields (everything but
    the ["id"]/["deadline_ms"]/["tier"]/["retries"] envelope),
    canonically ordered — two requests that would hit the same memo
    cell hash alike, so routing preserves cache locality. *)

val route : t -> string -> shard list
(** Ring walk for a key: every distinct shard in failover order
    (closest ring point first). Deterministic; ignores health. *)

val handler : t -> Server.handler
(** The forwarding handler (plug into {!Server.create}). It asks for
    {!Server.Threads} workers: a forward only waits on a shard socket.
    Its [status_extra] reports the ring, per-shard health and the
    forward, failover, probe and [connects] counters under
    ["router"]. *)

val start : t -> unit
(** Spawn the probe thread. Idempotent. *)

val stop : t -> unit
(** Stop and join the probe thread and close every idle shard
    connection. Idempotent. Until the next {!start}, forwards still
    work but close their connection instead of keeping it. *)

val healthy : t -> shard -> bool
(** Whether routing currently considers the shard admitted (its
    breaker is not open). *)
