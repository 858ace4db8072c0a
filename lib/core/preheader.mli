(** Preheader insertion (paper section 3.3): hoist checks out of
    loops — the LI, LLS and (extension) MCM schemes.

    A hoistable check becomes a conditional check in the loop
    preheader, guarded by "the loop executes at least once"; the
    covered body check is deleted directly (this is the implication
    from preheader conditional checks to loop-body checks that the
    paper's LLS' ablation preserves). Loops are processed inner to
    outer, so hoisted conditional checks can be hoisted again with
    conjoined guards — "to the outermost loop possible".

    Eligibility and safety conditions are documented in the
    implementation; the key ones are the paper's anticipatability-at-
    body-start rule for plain checks and, for loop-limit substitution,
    index integrity (nothing but the latch increment assigns the
    index — Fortran's do-variable rule, re-verified at the IR level). *)

type variant =
  | Invariant_only  (** LI: invariant checks only *)
  | Loop_limit  (** LLS: also index-linear checks, extreme substituted *)
  | Markstein
      (** MCM (Markstein/Cocke/Markstein 1982): only checks in
          articulation nodes of the loop body, with simple
          (single-atom, unit-coefficient) range expressions — dominance
          reasoning instead of data-flow anticipatability. *)

val run : Checkctx.t -> variant:variant -> Checkctx.counts -> unit
(** Bumps [hoisted_invariant] or [hoisted_linear] per hoisted site and
    [guards_inserted] or [plain_inserted] per preheader insertion. *)
