(** Check strengthening (Gupta; paper section 3.3) — the CS scheme.

    For each check C, compute the strongest anticipatable check C' of
    C's family at C's program point and replace C by C'. C' is
    guaranteed to be performed later anyway, so performing it here is
    safe, and it makes the later weaker checks redundant — the
    elimination pass then deletes them. This realizes the paper's
    Figure 1(b) -> 1(c) transformation. *)

val run : Checkctx.t -> Checkctx.counts -> unit
(** Bumps [strengthened] per replaced check. *)
