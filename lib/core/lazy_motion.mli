(** PRE placement of checks: the safe-earliest and latest-not-isolated
    transformations of Knoop, Rüthing & Steffen ("Lazy Code Motion"),
    adapted to range checks (paper sections 2.1 and 3.3).

    Differences from arithmetic PRE, per the paper:
    - a check defines no value, so the pass only {e inserts} checks at
      the chosen edges; the shared elimination pass afterwards deletes
      everything that became redundant;
    - generation is implication-aware;
    - safety = down-safety: inserting where a check at least as strong
      is anticipatable can only move the trap earlier, never invent
      one. Down-safe placement is {e not} always profitable — the
      paper's Figure 5.

    Critical edges are split before the edge systems are solved. *)

type placement = Safe_earliest | Latest_not_isolated

val run : Checkctx.t -> placement:placement -> Checkctx.counts -> unit
(** Bumps [pre_inserted] per inserted check. *)
