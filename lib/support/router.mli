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
    [{"code": "no-shard", "retryable": true}]. *)

type shard = { name : string; address : Server.Client.address }

type t

val create :
  ?replicas:int ->
  ?threshold:int ->
  ?cooldown_s:float ->
  ?probe_interval_s:float ->
  ?probe_timeout_s:float ->
  ?forward_timeout_s:float ->
  shards:shard list ->
  unit ->
  t
(** [replicas] (default 64) is the number of ring points per shard;
    [threshold]/[cooldown_s] parameterize the health {!Breaker}
    (defaults 3 / 2.0); [probe_interval_s] (default 0.5) the probe
    cadence; [probe_timeout_s] (default 2.0) the probe's receive
    budget; [forward_timeout_s] (default 35.0) the receive budget for
    a forwarded request carrying no ["deadline_ms"] of its own — one
    that does gets that deadline plus slack instead.
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
(** The forwarding handler (plug into {!Server.create}). Its
    [status_extra] reports the ring and per-shard health under
    ["router"]. *)

val start : t -> unit
(** Spawn the probe thread. Idempotent. *)

val stop : t -> unit
(** Stop and join the probe thread. Idempotent. *)

val healthy : t -> shard -> bool
(** Whether routing currently considers the shard admitted (its
    breaker is not open). *)
