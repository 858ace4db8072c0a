(** Per-key circuit breaker — the compile server's graceful-degradation
    switch.

    One breaker instance tracks many keys (placement schemes). A key
    starts [Closed]; [threshold] {e consecutive} recorded failures open
    it. While [Open], {!decide} answers [`Fallback] (route the request
    to the always-safe floor) until [cooldown_s] has elapsed, then
    admits exactly one [`Probe]; the probe's {!record} result closes
    ([ok = true]) or re-opens ([ok = false]) the key. A probe whose
    outcome is never recorded (lost to a crash or a deadline) stops
    blocking after another [cooldown_s]: {!decide} re-arms the probe
    rather than letting [Half_open] wedge the key in fallback
    forever.

    Time is an explicit [~now] (monotonic seconds, any epoch): the
    state machine is a pure function of its call sequence, so tests
    drive it without sleeping. All operations are mutex-protected and
    callable from concurrent worker domains. *)

type t

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed"], ["open"], ["half-open"]. *)

val create : ?threshold:int -> ?cooldown_s:float -> unit -> t
(** [threshold] consecutive failures trip a key (default 3, clamped to
    >= 1); [cooldown_s] is the open-to-probe delay (default 2s). *)

val decide : t -> now:float -> string -> [ `Allow | `Probe | `Fallback ]
(** What to do with a request for [key]: [`Allow] (closed), [`Probe]
    (first caller after cooldown — run the real thing and {!record}
    the outcome), or [`Fallback] (open, or a probe already in flight;
    a probe older than [cooldown_s] is presumed lost and re-armed). *)

val record : t -> now:float -> string -> ok:bool -> unit
(** Record a request outcome for [key]. Success closes and zeroes the
    failure count; failure increments it (tripping at [threshold]) or
    re-opens a half-open key. Fallback requests must NOT be recorded —
    they say nothing about the key's health. *)

val state : t -> string -> state

val trips : t -> int
(** Lifetime count of Closed -> Open transitions (all keys). *)

val snapshot : t -> (string * state * int) list
(** Every key seen, with its state and current consecutive-failure
    count, sorted by key. *)
