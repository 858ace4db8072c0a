(** Per-function optimization context.

    Bundles the function with its loop structure, the configured
    implication mode and, under [--oracle], the compile's entailment
    cache. A check instruction's analysis check is its own canonical
    check [m.chk]: the INX pre-pass rewrites instructions in place. *)

type t = {
  func : Nascent_ir.Func.t;
  mutable loops : Nascent_analysis.Loops.loop list;
      (** innermost-first; kept fresh via {!refresh} *)
  mutable loops_num_blocks : int;
      (** block count {!loops} was computed at *)
  mode : Nascent_checks.Universe.mode;
  oracle : Nascent_ir.Validate.Cache.t option;
      (** the compile's entailment cache when availability is widened
          with the {!Nascent_checks.Oracle} decision procedure (the
          [--oracle] axis); [None] without the oracle *)
}

val create :
  mode:Nascent_checks.Universe.mode ->
  ?oracle:Nascent_ir.Validate.Cache.t ->
  ?loops:Nascent_analysis.Loops.loop list ->
  Nascent_ir.Func.t ->
  t
(** [loops] are the function's current loops, when a pass already has
    them (the INX rewrite); otherwise they are computed. *)

val kill_keys : t -> Nascent_ir.Types.instr -> int list
(** The atom keys an instruction invalidates: an assignment kills its
    variable's atoms, a store or a call the load-bearing opaque atoms. *)

val refresh : t -> unit
(** Recompute the loop structure if a pass changed the CFG shape (edge
    splitting adds blocks). Cheap no-op when the block count is
    unchanged; atom kills depend only on the atom table and stay valid,
    which is why one context can serve the whole pass pipeline. *)

val universe : t -> Nascent_checks.Universe.t
(** Freeze the checks currently present in the function into a
    {!Nascent_checks.Universe} (placement passes rebuild this after
    inserting). *)
