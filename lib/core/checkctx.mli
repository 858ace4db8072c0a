(** Per-function optimization context.

    Bundles the function with its loop structure, a check implication
    graph, the configured implication mode, and the two oracles every
    analysis and placement pass consults:
    - [site_check]: the {e analysis check} a check instruction denotes
      (the instruction's own canonical check under PRX; the INX
      pre-pass rewrites instructions in place, so it is the identity
      there too);
    - [instr_kill_keys] / [block_entry_kill_keys]: which atom keys an
      instruction (or a block entry) invalidates. *)

type t = {
  func : Nascent_ir.Func.t;
  mutable loops : Nascent_analysis.Loops.loop list;
      (** innermost-first; kept fresh via {!refresh} *)
  mutable loops_num_blocks : int;
      (** block count {!loops} was computed at *)
  cig : Nascent_checks.Cig.t;
  mode : Nascent_checks.Universe.mode;
  oracle : Nascent_ir.Validate.Cache.t option;
      (** the compile's entailment cache when availability is widened
          with the {!Nascent_checks.Oracle} decision procedure (the
          [--oracle] axis); [None] without the oracle *)
  site_check : Nascent_ir.Types.check_meta -> Nascent_checks.Check.t;
  instr_kill_keys : Nascent_ir.Types.instr -> int list;
  block_entry_kill_keys : int -> int list;
}

val create_prx :
  mode:Nascent_checks.Universe.mode ->
  ?oracle:Nascent_ir.Validate.Cache.t ->
  ?loops:Nascent_analysis.Loops.loop list ->
  Nascent_ir.Func.t ->
  t
(** The standard context: site checks are the instructions' own
    canonical checks; assignments kill their variable's atoms, stores
    and calls kill load-bearing opaque atoms. [loops] are the
    function's current loops, when a pass already has them (the INX
    rewrite); otherwise they are computed. *)

val refresh : t -> unit
(** Recompute the loop structure if a pass changed the CFG shape (edge
    splitting adds blocks). Cheap no-op when the block count is
    unchanged; the rest of the context — atom kills, site checks, the
    CIG — depends only on the atom table and stays valid, which is why
    one context can serve the whole pass pipeline instead of being
    rebuilt (and every check re-canonicalized) per pass. *)

val universe : t -> Nascent_checks.Universe.t
(** Freeze the checks currently present in the function into a
    {!Nascent_checks.Universe} (placement passes rebuild this after
    inserting). *)
