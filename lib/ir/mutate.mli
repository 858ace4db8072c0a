(** Seeded fault injection for the fail-safe optimizer pipeline.

    A mutation deliberately corrupts the output of one optimizer pass
    (the {!target_pass} of its class) so the tests and the
    [--inject-fault] CLI can prove that every corruption class is
    caught by the inter-pass verifier (or the per-pass fuel budget) and
    recovered by rollback. All choices are seeded and replayable. *)

type cls =
  | Drop_check  (** remove a check — caught by count preservation *)
  | Weaken_check  (** raise a check constant — caught by the strengthening rule *)
  | Break_edge  (** dangle a terminator target — caught by the CFG rule *)
  | Unsafe_insert
      (** re-insert a check above a definition of one of its symbols —
          caught by the anticipatability (safety) rule *)
  | Hang_fixpoint
      (** spin the pass forever — caught by the per-pass fuel budget *)
  | Unsound_eliminate
      (** delete a plain check whose deletion the translation
          validator ({!Validate}) refuses, chosen by asking it — legal
          under every differential rule, caught only by the
          per-compile certificate *)

val all_classes : cls list
val cls_name : cls -> string
val cls_of_name : string -> cls option

val target_pass : cls -> string
(** Optimizer pass after whose body the corruption is applied
    ("strengthen", "eliminate" or "pre-insert"); configurations whose
    pipeline never runs that pass apply nothing. *)

val hangs : cls -> bool
(** [true] for {!Hang_fixpoint}: instead of a structural corruption,
    the injector spins on the ambient fuel budget
    ({!Nascent_support.Guard.exhaust_ambient}). *)

type spec = { cls : cls; seed : int }

val spec_name : spec -> string
(** ["<class>:<seed>"] — stable, used in cache keys and reports. *)

type request = Smoke | Single of spec

val parse_request : string -> (request, string) result
(** Parse an [--inject-fault] argument: ["smoke"], ["<class>"] or
    ["<class>:<seed>"]. *)

val apply : seed:int -> cls -> Func.t -> bool
(** Corrupt [f] in place; [false] when the class found no applicable
    site (or for {!Hang_fixpoint}, which corrupts nothing). *)
