(** Steps 4 and 5 of the optimizer (paper section 3): eliminate checks
    that are available (hence redundant), then fold compile-time
    checks — true ones disappear, false ones become [TRAP] instructions
    reported to the programmer. Every placement scheme ends with this
    pass. *)

type stats = {
  mutable redundant_deleted : int;
  mutable compile_time_deleted : int;
  mutable compile_time_traps : int;
}

val new_stats : unit -> stats

val redundancy_elimination : Checkctx.t -> stats -> unit
(** Step 4: one forward scan per block seeded with block-entry
    availability; a check instruction whose check is covered by an
    available one is deleted, otherwise it generates. Syncs the
    context's check table first. *)

val oracle_elimination :
  pool:Nascent_checks.Intern.t ->
  Nascent_ir.Func.t ->
  stats ->
  Nascent_ir.Validate.Facts.state array
(** Step 4b ([--oracle] only): delete every check (and every guarded
    check) provable from the {e ambient} facts of its program point —
    branch conditions, assignment postconditions, and affine loop
    invariants, with check instructions contributing nothing
    ({!Nascent_ir.Validate.Facts}). Check-independence keeps the
    deletions stable under each other, so the per-compile translation
    validator re-proves every one on the post-deletion function.
    [pool] is the compile's interned checks, shared with the
    certificate. Returns the block-entry facts it solved, which the
    certificate takes as its hint. *)

val compile_time_checks : Nascent_ir.Func.t -> stats -> unit
(** Step 5; also folds constant conditional-check guards. *)
