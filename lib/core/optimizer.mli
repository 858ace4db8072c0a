(** The five-step range check optimizer (paper section 3):

    + decide which checks imply which ({!Nascent_checks.Universe}, one
      check table per function compile, each pair decided once: a
      smaller constant within a family, and under [--oracle] what the
      Fourier–Motzkin oracle proves across families);
    + compute safe insertion points ({!Analyses.anticipatability});
    + insert checks per the configured scheme ({!Strengthen},
      {!Lazy_motion}, {!Preheader});
    + compute availability and eliminate redundant checks
      ({!Eliminate});
    + evaluate compile-time checks
      ({!Eliminate.compile_time_checks}).

    Behaviour preservation (enforced by the test suite on the full
    benchmark matrix and on random programs): the optimized program
    traps iff the original does and no later, prints the same values,
    and — for the non-PRE schemes — never performs more dynamic
    checks.

    When [Config.verify] is set, {!Nascent_ir.Verify} additionally
    checks the IR between every step, and every step is always timed
    with a monotonic clock into per-pass {!pass_stat} records.

    {b Fail-safe contract.} Every pass runs against a snapshot of the
    function IR. If the pass raises, the verifier rejects its output,
    or the per-pass fuel budget ({!pass_fuel_budget}) is exhausted, the
    snapshot is restored in place, an {!incident} is recorded in
    {!stats}, and compilation continues with the remaining passes — in
    the limit every pass rolls back and the function degrades to the
    always-safe NI form. {!optimize} and {!optimize_func} therefore no
    longer raise on a mid-pipeline verifier violation; only the
    {e input} verification (pass [Lowered], nothing to roll back to)
    still raises {!Nascent_ir.Verify.Invalid_ir}.

    [Config.fault] (the [--inject-fault] CLI flag) deliberately
    corrupts one pass's output via {!Nascent_ir.Mutate} to exercise
    this detect-and-rollback path; it forces verification on. *)

type pass_stat = {
  pass : string;  (** "context", "strengthen", "hoist", "eliminate", ... *)
  pass_time_s : float;  (** monotonic; summed across functions by {!add} *)
  pass_checks_before : int;
  pass_checks_after : int;
}

(** Why a pass was rolled back. The compile service records the last
    two; {!optimize} never does. *)
type cause =
  | Pass_exception  (** the pass body raised *)
  | Verifier_rejected  (** {!Nascent_ir.Verify} refused the pass output *)
  | Budget_exhausted  (** the per-pass fuel budget ran out *)
  | Breaker_open  (** the scheme's breaker sent the compile to the NI floor *)
  | Validation_refused  (** translation validation refused the certificate *)

val cause_name : cause -> string
(** ["exception"], ["verifier"], ["fuel"], ["breaker"] or
    ["validation"]. *)

(** One rolled-back pass: the recovery path's audit record. *)
type incident = {
  inc_pass : string;
  inc_func : string;
  inc_cause : cause;
  inc_detail : string;  (** verifier message / exception text / fuel tag *)
  inc_elapsed_s : float;  (** time burned by the failed attempt *)
}

type stats = {
  config : Config.t;
  strengthened : int;
  pre_inserted : int;
  hoisted_invariant : int;
  hoisted_linear : int;
  guards_inserted : int;
  plain_inserted : int;
  redundant_deleted : int;
  compile_time_deleted : int;
  compile_time_traps : int;
  static_checks_before : int;
  static_checks_after : int;
  passes : pass_stat list;  (** pipeline order *)
  incidents : incident list;  (** rolled-back passes, pipeline order *)
  faults_injected : int;
      (** corruptions {!Nascent_ir.Mutate} actually applied or
          triggered; [0] in every fault-free compile *)
  elapsed_s : float;
      (** monotonic optimization time — Table 2/3's "Range" column *)
  validation : Nascent_ir.Validate.t option;
      (** the translation-validation certificate ({!Nascent_ir.Validate}):
          proven/failed coverage of every reference check site. [None]
          unless the compile ran with [Config.oracle]. *)
  work : Nascent_checks.Work.t;
      (** the proof engine's deterministic work counts, validation
          included ({!Nascent_checks.Work}) *)
}

val validated : stats -> bool option
(** The certificate folded to its wire form: [None] when validation did
    not run (no [--oracle]), [Some ok] otherwise. *)

val add : stats -> stats -> stats
(** Sums counters and per-pass records (merged by pass name). *)

val placement :
  Config.scheme -> (string * Nascent_ir.Verify.pass * (Checkctx.t -> Checkctx.counts -> unit)) list
(** Step 3, the one step a scheme chooses: its placement passes in
    pipeline order, each with its pass name and the verifier rules
    its output is checked against. [NI] places nothing; [ALL] hoists
    with loop-limit substitution, then inserts safe-earliest. *)

val optimize_func : Config.t -> Nascent_ir.Func.t -> stats
(** Optimize one function in place. A pass that faults is rolled back
    and reported in [stats.incidents]; the function is always left in a
    verified-safe state.
    @raise Nascent_ir.Verify.Invalid_ir when verification is on and the
    {e input} function is already invalid (pass [Lowered] — there is no
    earlier state to roll back to). *)

val optimize :
  ?config:Config.t -> Nascent_ir.Program.t -> Nascent_ir.Program.t * stats
(** Optimize a whole program. The input is not modified: optimization
    runs on a copy, which is returned with aggregated statistics.
    Check [stats.incidents] to learn whether any function compiled
    degraded. *)

val pp_incident : incident Fmt.t
val pp_stats : stats Fmt.t

val incident_to_json : ?brief:bool -> incident -> Nascent_support.Json.t
(** The one wire form of an incident: [pass], [func], [cause],
    [detail], [elapsed_s]; [~brief:true] (a service response) keeps
    only [pass], [cause] and [detail]. *)

val stats_to_json : stats -> Nascent_support.Json.t
(** Stable JSON rendering of {!stats} (including the per-pass
    breakdown) for the [--stats-json] CLI flag. *)
