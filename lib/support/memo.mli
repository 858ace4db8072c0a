(** Content-addressed result cache for the experiment matrix and the
    compile service.

    Every evaluation cell is a pure function of (benchmark source,
    optimizer configuration): repeated [bench] / [verify] / [runtest]
    work inside one process re-optimizes and re-interprets the same
    pairs. A memo keys each cell by a digest of its inputs and keeps
    the computed value in a domain-safe in-memory table. Nothing is
    persisted: a new process starts cold and recomputes.

    The table is bounded by two generations of {!generation} entries:
    a full young generation replaces the old one (whose entries are
    dropped), and a hit in the old generation moves the entry back to
    the young one. A long-lived daemon fed unique sources therefore
    holds at most [2 * generation] results.

    The cache key MUST cover every input that affects the value —
    including [Config.verify] (see [Config.cache_key]): verifier-on and
    verifier-off runs never share entries. *)

type 'v t

type counters = {
  hits : int;  (** lookups served from the table *)
  misses : int;  (** recomputations *)
  entries : int;  (** results held now, both generations *)
}

val generation : int
(** Entries per generation: 16,384. *)

val key : string list -> string
(** Digest a list of key components (order-sensitive; as injective as
    MD5 is collision-free, whatever bytes the components hold). No
    component is copied. *)

val create : unit -> 'v t
(** An empty memo. *)

val find_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v
(** Return the cached value for [key], or compute and cache it. Safe to
    call from pool workers; concurrent computations of the same fresh
    key may both run (last write wins — values are deterministic, so
    equal). *)

val stats : 'v t -> counters
