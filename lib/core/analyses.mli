(** Availability and anticipatability of checks (paper section 3.2).

    Both are {e must} data-flow problems over the compile's check
    table, solved for the checks {!Checkctx.universe} last found in the
    function ([ctx.present]):
    - availability (forward): a check statement generates itself and
      all checks it implies (mode-permitting); a definition of any
      symbol of a check's range expression kills it;
    - anticipatability (backward): generation is restricted to weaker
      checks {e of the same family} — the paper's stronger condition
      that keeps insertion points below the definitions of a check's
      symbols.

    The table also holds checks that are gone from the function; their
    bits are never set, so every result reads on the present checks as
    it would over a table of only them. *)

val availability : Checkctx.t -> Nascent_analysis.Dataflow.result
(** Block-level availability. A [Cond_check] generates nothing in
    either problem: when its guard is false it performs no check. *)

val anticipatability : Checkctx.t -> Nascent_analysis.Dataflow.result
(** Block-level anticipatability; [result.in_] is ANTIN (block entry),
    [result.out] ANTOUT. *)
