(** Deterministic work counts of the proof engine.

    Four counters measure how much reasoning a compile does, in units
    that do not depend on the machine, the clock or the representation
    of checks:
    - [visits]: block visits of the fixpoint engine
      ([Nascent_ir.Fixpoint.iterate]), every data-flow problem
      together;
    - [goals]: goals an {!Oracle.Hyps} handle decides, memo misses
      only;
    - [refutations]: Fourier–Motzkin refutations actually run, memo
      misses only;
    - [rounds]: Fourier–Motzkin elimination rounds (one per column
      projected away).

    A change that only makes the engine faster leaves every count as
    it was. The counters are per domain and only ever grow: read them
    with {!now} before a piece of work and {!since} after it. *)

type t = { visits : int; goals : int; refutations : int; rounds : int }

val zero : t
val add : t -> t -> t

val now : unit -> t
(** The current domain's counters. *)

val since : t -> t
(** [since w0]: the work the current domain did since {!now} gave
    [w0]. *)

val fields : t -> (string * int) list
(** The counts under their wire names: [fixpoint_visits],
    [oracle_goals], [fm_refutations] and [fm_rounds]. *)

val visit : unit -> unit
val goal : unit -> unit
val refutation : unit -> unit
val round : unit -> unit
