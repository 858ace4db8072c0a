(** Whole-IR copying and check stripping.

    The experiment harness optimizes the same naive-checked program
    under many configurations; each run works on its own copy. Block
    ids are preserved, so loop metadata remains valid; the atom
    environment is cloned (it is mutable and append-only). *)

val copy_func : Func.t -> Func.t
val copy_program : Program.t -> Program.t

val snapshot_func : Func.t -> Func.t
(** A {!copy_func} that shares [f]'s atom table instead of cloning it:
    the snapshot a pass runs against, for {!restore_func} and the
    verifier's differential rules. Only [f] may intern atoms while the
    snapshot is alive. *)

val restore_func : from_:Func.t -> Func.t -> unit
(** [restore_func ~from_:snapshot f] rolls [f] back to [snapshot] (a
    {!copy_func} or {!snapshot_func} of [f] taken earlier), in place: block records and the
    [Func.t] record keep their physical identity, blocks appended since
    the snapshot are dropped, and instruction lists / terminators /
    scalar tables / loop metadata are restored to the snapshot's
    values. The append-only atom table is deliberately left alone —
    entries interned by a rolled-back pass are unused, not wrong. *)

val strip_checks_func : Func.t -> unit

val strip_checks : Program.t -> Program.t
(** A copy with every check-related instruction removed — the "without
    range checking" baseline of Table 1. *)
