(** Fault-containment primitives: deterministic fuel watchdogs and
    atomic file writes.

    Fuel replaces wall-clock watchdogs everywhere determinism matters:
    a budget is a tick counter, fixpoint loops charge it once per
    sweep, and exhaustion raises {!Fuel_exhausted} at the same tick on
    every run, every pool size, every machine. The optimizer installs
    one budget per pass (so a hung fixpoint rolls back that pass); the
    pool can install one per task (so a pathological cell fails
    promptly instead of wedging a whole [bench tables] run). *)

exception Fuel_exhausted of string
(** Raised by {!tick} when a budget runs out; the payload names the
    budget ([what]). *)

exception Deadline_exceeded of string
(** Raised by the ambient deadline check when a wall-clock budget runs
    out; the payload names the deadline ([what]). *)

exception Mem_exceeded of string
(** Raised by {!tick_ambient} when the process-wide memory budget (see
    {!set_mem_budget}) is exceeded; the payload describes heap vs
    budget. *)

type fuel

val fuel : what:string -> budget:int -> fuel
(** A fresh budget of [max 1 budget] ticks named [what]. *)

val remaining : fuel -> int

val tick : fuel -> unit
(** Charge one tick. @raise Fuel_exhausted when the budget hits 0. *)

(** {2 Wall-clock deadlines}

    Fuel is deterministic but knows nothing about latency; a deadline
    is the converse — the compile server's per-request wall-clock
    budget, layered on the same ambient ticking. The monotonic clock is
    read only every 128th {!tick_ambient} (and by {!check_deadlines}),
    so ticking stays cheap on fixpoint hot paths. *)

type deadline

val deadline : what:string -> seconds:float -> deadline
(** A wall-clock budget of [seconds], counting from the call (so a
    deadline created at request admission also covers queue wait). *)

val expired : deadline -> bool

val remaining_s : deadline -> float
(** Seconds left, clamped at [0.]. *)

val with_deadline : deadline -> (unit -> 'a) -> 'a
(** Install [deadline] for the dynamic extent of the thunk (nests like
    {!with_fuel}); the ambient ticking of everything nested under it
    raises {!Deadline_exceeded} once the budget is spent. *)

val check_deadlines : unit -> unit
(** Check every ambient deadline of the current domain right now,
    without the 128-tick throttle.
    @raise Deadline_exceeded if one has expired. *)

(** {2 Ambient budgets}

    A per-domain stack of installed budgets. Fixpoint loops call
    {!tick_ambient} instead of threading a [fuel] parameter through
    every analysis signature; each call charges {e every} installed
    budget, so an outer watchdog bounds all work nested under it. *)

val with_fuel : fuel -> (unit -> 'a) -> 'a
(** Install [fuel] for the dynamic extent of the thunk (re-entrant:
    budgets nest). The installation is per-domain. *)

val tick_ambient : unit -> unit
(** Charge every ambient budget of the current domain (and, every
    128th tick, check its ambient deadlines); no-op when none is
    installed. @raise Fuel_exhausted from the innermost exhausted
    budget. @raise Deadline_exceeded past an ambient deadline. *)

val exhaust_ambient : unit -> 'a
(** Spin on {!tick_ambient} until a budget runs out — the fault
    injector's deterministic stand-in for a hung fixpoint.
    @raise Fuel_exhausted always (immediately when no fuel budget or
    deadline is installed). @raise Deadline_exceeded when an ambient
    deadline fires first. *)

(** {2 Memory watchdog}

    A process-wide major-heap budget for the compile daemon: a [Gc]
    alarm samples the heap after every major collection and sets an
    atomic flag; {!tick_ambient} reads the flag (one atomic load on
    the hot path) and raises {!Mem_exceeded} from whatever request is
    ticking once the heap is over budget — degrading that one request
    instead of letting the OS OOM-kill the daemon. {!mem_level} is the
    admission-side view: the server sheds new work at [`Pressure]
    (default 80% of the budget) before any request has to die. *)

val set_mem_budget : ?shed_fraction:float -> bytes:int option -> unit -> unit
(** Install ([Some bytes]) or remove ([None]) the process-wide
    major-heap budget. [shed_fraction] (default [0.8], clamped to
    [0, 1]) sets the fraction of the budget at which {!mem_level}
    starts reporting [`Pressure]. Idempotent; safe to call again to
    resize. *)

val mem_budget : unit -> int option
(** The installed budget in bytes, if any. *)

val mem_level : unit -> [ `Ok | `Pressure | `Over ]
(** Fresh sample of the major heap against the budget: [`Ok] (or no
    budget installed), [`Pressure] past [shed_fraction * budget],
    [`Over] past the budget itself. Never raises. *)

val mem_heap_bytes : unit -> int
(** Current major-heap size in bytes ([Gc.quick_stat], cheap). *)

val mem_budget_from_env : unit -> int option
(** [NASCENT_MEM_BUDGET] (megabytes, positive integer) as a byte
    budget; [None] when unset or unparseable. *)

(** {2 Atomic writes} *)

val write_atomic : path:string -> string -> unit
(** Write [contents] to [path] via a temp file in the same directory
    and an atomic [rename]: readers see either the old file or the
    complete new one, never a torn write. Raises as [Out_channel] /
    [Sys.rename] do (the temp file is removed on failure). *)
