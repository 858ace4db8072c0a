(** Per-function atom environment.

    Maps IR entities to the symbolic atoms of canonical range
    expressions:
    - a scalar variable maps to a stable atom;
    - a non-linear subscript subexpression maps to a hash-consed
      {e opaque} atom (the whole subexpression is one symbolic term).

    The environment also answers the kill question of the check data
    flow: which atom keys does a definition of variable [v] (or a store
    to memory) invalidate? *)

type payload = Avar of Types.var | Aopaque of Types.expr

type t

val create : unit -> t

val clone : t -> t
(** Independent copy. Optimization runs on program copies that allocate
    new atoms (INX basic variables); sharing the tables would leak
    state between runs. Atom values themselves are immutable and
    shareable. *)

val of_var : t -> Types.var -> Nascent_checks.Atom.t
(** The (interned) atom of a scalar variable. *)

val of_opaque : t -> Types.expr -> Nascent_checks.Atom.t
(** The (hash-consed, by structural equality) atom of an opaque
    subscript subexpression. *)

val payload : t -> int -> payload option
(** What an atom key denotes. *)

val payload_exn : t -> int -> payload

val killed_by_def : t -> Types.var -> int list
(** Atom keys invalidated by a definition of [v]: [v]'s own atom plus
    every opaque atom whose expression mentions [v]. *)

val killed_by : t -> Types.instr -> int list
(** Atom keys an instruction invalidates: {!killed_by_def} for an
    assignment; for an array store or a call, the opaque atoms whose
    expressions read memory; nothing otherwise. The list is read when
    asked: a linearization may add opaque atoms that a later read
    includes. *)
