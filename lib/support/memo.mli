(** Content-addressed result cache for the experiment matrix.

    Every evaluation cell is a pure function of (benchmark source,
    optimizer configuration): repeated [bench] / [verify] / [runtest]
    invocations re-optimize and re-interpret the same pairs from
    scratch. A memo keys each cell by a digest of its inputs and stores
    the computed value in a domain-safe in-memory table, optionally
    backed by an on-disk store (default [_build/.nascent-cache]) so
    warm reruns skip unchanged cells across processes too.

    The cache key MUST cover every input that affects the value —
    including [Config.verify] (see [Config.cache_key]): verifier-on and
    verifier-off runs never share entries. Bump the caller's version
    string when the cached value's shape changes. *)

type 'v t

type counters = {
  hits : int;  (** in-memory or disk hits *)
  disk_hits : int;  (** subset of [hits] served from the disk store *)
  misses : int;  (** recomputations *)
  quarantined : int;
      (** corrupt disk entries detected, moved to [<dir>/quarantine/]
          and re-counted as misses *)
}

val key : string list -> string
(** Digest a list of key components (order-sensitive, injective for
    component lists free of ['\000']). *)

val env_disk_dir : unit -> string option
(** The disk-store directory the environment selects —
    [NASCENT_CACHE_DIR], or the default [_build/.nascent-cache] under
    [NASCENT_CACHE=1] — or [None] when the disk store is off. The
    daemon uses this to take an advisory {!Guard.lock_dir} on a cache
    shared between processes. *)

val create : ?disk_dir:string -> ?quarantine_max:int -> name:string -> unit -> 'v t
(** [create ~name ()] makes an in-memory memo. The disk store is
    enabled by [~disk_dir], or — when the argument is omitted — by the
    [NASCENT_CACHE_DIR] environment variable (a directory) or
    [NASCENT_CACHE=1] (the default [_build/.nascent-cache]). Entries
    live under [<dir>/<name>/<key>]; [name] must be filename-safe.

    [?quarantine_max] caps the [<dir>/quarantine/] post-mortem buffer:
    each quarantining prunes the directory to the newest
    [quarantine_max] entries by mtime, so a flaky disk cannot grow it
    unboundedly. Defaults to [NASCENT_QUARANTINE_MAX] or 64; [0] keeps
    nothing. *)

val find_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v
(** Return the cached value for [key], reading through to the disk
    store, or compute, cache and persist it. Safe to call from pool
    workers; concurrent computations of the same fresh key may both
    run (last write wins — values are deterministic, so equal).

    Disk entries carry an embedded content digest; a truncated or
    corrupted entry is detected on read, moved to [<dir>/quarantine/]
    for post-mortems, counted in [counters.quarantined], and the lookup
    degrades to an ordinary miss (recompute and re-persist) instead of
    raising. Entries are written atomically (temp file + rename), so an
    interrupted writer never leaves a torn entry behind. *)

val stats : 'v t -> counters

val clear : 'v t -> unit
(** Drop the in-memory table and reset {!stats} counters. The disk
    store (when enabled) is left untouched. *)

val clear_disk : 'v t -> unit
(** Remove this memo's on-disk entries (no-op without a disk store). *)
