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
}

val validated : t -> bool

val empty : t
val merge : t -> t -> t

val func : original:Func.t -> optimized:Func.t -> t
(** Validate one function pair (unbounded — callers wanting the fuel
    guarantee use {!func_guarded} or {!program}). *)

(** A compile's entailment cache: memoised answers to "do these facts
    prove this check?" and the {!Nascent_checks.Oracle.Cache} beneath
    them. Create one per function compile and share it between the
    oracle elimination pass ({!Facts}) and the certificate
    ({!func_guarded}); drop it with the function. A hit returns exactly
    the answer a fresh query would. Not thread-safe. *)
module Cache : sig
  type t

  val create : unit -> t
end

val func_guarded : cache:Cache.t -> original:Func.t -> optimized:Func.t -> t
(** {!func} under the validator's own fuel budget, answering from and
    filling [cache]; exhaustion reports a single "validation fuel
    exhausted" failure instead of raising. *)

val program : original:Program.t -> optimized:Program.t -> t
(** Validate every function of the reference program against its
    optimized counterpart (missing counterparts are failures). *)

val pp_site : site Fmt.t
val pp : t Fmt.t

val fragile_sites : Func.t -> (Types.block * int) list
(** Positions [(block, index)] of plain check instructions whose
    constraint the validator could not re-prove were the instruction
    deleted: unprovable from the full hypothesis state of its check
    region with the site itself excluded. {!Mutate}'s
    [Unsound_eliminate] class picks its deletions here, so the
    translation validator is guaranteed to refuse the certificate. *)

(** The validator's hypothesis engine in {e ambient} mode: check
    instructions contribute no facts, so the state at a point depends
    only on assignments and the branch conditions holding on every path
    in. A check provable from ambient facts stays provable after {e
    any} set of check deletions — the proof ingredients survive in the
    program text — which is what lets the oracle elimination pass
    delete such checks while the per-compile translation validator
    still re-derives every proof on the post-deletion function. *)
module Facts : sig
  type state

  val ambient_entry : cache:Cache.t -> Func.t -> state array
  (** Per-block entry states from the validator's forward data-flow
      (semantic meet, affine loop-invariant candidates, widening) with
      check contributions disabled. *)

  val step : cache:Cache.t -> Atoms.t -> state option -> Types.instr -> state option
  (** Ambient transfer of one instruction; [None] = dead past an
      unconditional trap. *)

  val proves : cache:Cache.t -> state -> Nascent_checks.Check.t -> bool
  (** Sound, fuel-bounded entailment: [true] means every execution
      reaching a point with this state satisfies the constraint. *)
end
