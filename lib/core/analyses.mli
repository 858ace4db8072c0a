(** Availability and anticipatability of checks (paper section 3.2).

    Both are {e must} data-flow problems over a frozen check universe:
    - availability (forward): a check statement generates itself and
      all checks it implies (mode-permitting); a definition of any
      symbol of a check's range expression kills it;
    - anticipatability (backward): generation is restricted to weaker
      checks {e of the same family} — the paper's stronger condition
      that keeps insertion points below the definitions of a check's
      symbols. *)

type env = { ctx : Checkctx.t; uni : Nascent_checks.Universe.t }

val make_env : Checkctx.t -> env

val n_checks : env -> int


val availability : env -> Nascent_analysis.Dataflow.result
(** Block-level availability. A [Cond_check] generates nothing in
    either problem: when its guard is false it performs no check. *)

val anticipatability : env -> Nascent_analysis.Dataflow.result
(** Block-level anticipatability; [result.in_] is ANTIN (block entry),
    [result.out] ANTOUT. *)
