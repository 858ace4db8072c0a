(** Per-function optimization context.

    Bundles the function with its loop structure and the compile's
    check table, built once on the compile's interned checks
    ({!Nascent_checks.Universe.pool}) and grown by every pass that asks
    for it. A check instruction's analysis check is its own canonical
    check [m.chk]: the INX pre-pass rewrites instructions in place. *)

type t = {
  func : Nascent_ir.Func.t;
  mutable loops : Nascent_analysis.Loops.loop list;
      (** innermost-first; kept fresh via {!refresh} *)
  mutable loops_num_blocks : int;
      (** block count {!loops} was computed at *)
  table : Nascent_checks.Universe.t;  (** the compile's check table *)
  mutable present : Nascent_support.Bitset.t;
      (** the ids of the checks the last {!universe} found in the
          function *)
}

val create :
  mode:Nascent_checks.Universe.mode ->
  oracle:bool ->
  pool:Nascent_checks.Intern.t ->
  ?loops:Nascent_analysis.Loops.loop list ->
  Nascent_ir.Func.t ->
  t
(** [pool]: the compile's interned checks, which the table is built on.
    [oracle]: availability is widened with the
    {!Nascent_checks.Oracle} decision procedure (the [--oracle] axis).
    [loops] are the function's current loops, when a pass already has
    them (the INX rewrite); otherwise they are computed. *)

val refresh : t -> unit
(** Recompute the loop structure if a pass changed the CFG shape (edge
    splitting adds blocks). Cheap no-op when the block count is
    unchanged; atom kills depend only on the atom table and stay valid,
    which is why one context can serve the whole pass pipeline. *)

val universe : t -> Nascent_checks.Universe.t
(** The check table, synced with the checks now in the function: new
    checks get their rows and {!present} becomes their ids. A pass
    calls it when it starts, and again after it inserted checks it
    wants to analyse. *)
