(** Per-compile translation validation.

    Proves, for every check site of a reference function, that the
    optimized function still performs that check or renders it
    unnecessary: the residual checks available at the corresponding
    program point, plus the branch conditions holding on every path
    into the block (the dominating guards), imply the original check's
    constraint — with {!Nascent_checks.Oracle} as the proof engine.

    The reference is the function as it entered the optimization
    pipeline (after the INX canonicalization pre-pass, whose own
    rewrite is covered by {!Verify}'s differential rules). A successful
    run is a machine-checked certificate that the optimizer deleted
    only checks it could prove redundant; the result is surfaced as the
    [validated] field of [--stats-json] and of the [nascentd] response,
    and a failure feeds the service breaker as an incident.

    Total and fail-safe: anything the validator cannot relate —
    structure mismatch, unlinearizable guard, oracle "unknown", fuel
    exhaustion — is a reported failure, never an exception or a hang
    (the run is bounded by its own {!Nascent_support.Guard} budget). *)

type site = {
  s_func : string;
  s_bid : int;  (** reference block id of the unproven site *)
  s_check : Nascent_checks.Check.t;
  s_reason : string;  (** why the obligation failed *)
}

type t = {
  total_sites : int;  (** check sites of the reference program *)
  proven_sites : int;
  failures : site list;  (** reference order; empty iff validated *)
  fallbacks : int;
      (** functions whose certificate fell back from checking the
          ambient solve's hint to searching for entry facts *)
}

val validated : t -> bool

val empty : t
val merge : t -> t -> t

(** The validator's hypothesis engine in {e ambient} mode: check
    instructions contribute no facts, so the state at a point depends
    only on assignments and the branch conditions holding on every path
    in. A check provable from ambient facts stays provable after {e
    any} set of check deletions — the proof ingredients survive in the
    program text — which is what lets the oracle elimination pass
    delete such checks while the per-compile translation validator
    still re-derives every proof on the post-deletion function.

    Every function takes the compile's {!Nascent_checks.Intern} pool:
    states name their facts by its ids, and every proof is answered
    from and fills its memo. Create one pool per function compile and
    share it between the optimizer's check table, its oracle queries
    and the certificate; a hit returns exactly the answer a fresh query
    would. Not thread-safe. *)
module Facts : sig
  type state

  val ambient_entry : pool:Nascent_checks.Intern.t -> Func.t -> state array
  (** Per-block entry states from the validator's forward data-flow
      (semantic meet, affine loop-invariant candidates, widening) with
      check contributions disabled, solved by {!Fixpoint}. A block
      that every path reaches through a trap holds no facts. *)

  val facts : pool:Nascent_checks.Intern.t -> state -> Nascent_checks.Check.t list
  (** The state's facts, in {!Nascent_checks.Check.compare} order. *)

  val of_facts : pool:Nascent_checks.Intern.t -> Nascent_checks.Check.t list -> state
  (** A state holding exactly these facts, true or not. *)

  val step :
    pool:Nascent_checks.Intern.t -> Atoms.t -> state option -> Types.instr -> state option
  (** Ambient transfer of one instruction; [None] = dead past an
      unconditional trap. *)

  val proves : pool:Nascent_checks.Intern.t -> state -> Nascent_checks.Check.t -> bool
  (** Sound, fuel-bounded entailment: [true] means every execution
      reaching a point with this state satisfies the constraint. *)
end

val func_guarded :
  pool:Nascent_checks.Intern.t ->
  ?hint:Facts.state array ->
  original:Func.t ->
  optimized:Func.t ->
  unit ->
  t
(** Validate one function pair under the validator's own fuel budget,
    over the compile's [pool]; exhaustion reports a single "validation
    fuel exhausted" failure instead of raising. The entry facts of the
    walk are [hint] (per block id, over [pool]; by default the
    {!Facts.ambient_entry} of [optimized], solved here) pruned to an
    inductive invariant, plus the residual checks available on every
    path; only if that walk leaves a site unproven are they searched
    for ([fallbacks] = 1). Nothing in [hint] is trusted: a fact not
    proven by every path into its block is dropped, so a wrong hint can
    cost a fallback but never gets a false fact into a proof. *)

val program : original:Program.t -> optimized:Program.t -> t
(** Validate every function of the reference program against its
    optimized counterpart (missing counterparts are failures). *)

val pp_site : site Fmt.t
val pp : t Fmt.t
