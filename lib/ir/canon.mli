(** Canonicalization of subscript and bound expressions into the
    paper's canonical check form (section 2.2). *)

val linearize : Atoms.t -> Types.expr -> Nascent_checks.Linexpr.t * int
(** Rewrite an integer IR expression as a linear combination of atoms
    plus a constant. Non-linear subexpressions (products of variables,
    divisions, array loads, ...) become a single opaque atom, so every
    expression has a canonical form — a non-linear one simply has
    coarser kill behaviour. *)

val checks_for_subscript :
  Atoms.t -> Types.arr -> dim:int -> sub:Types.expr -> Types.check_meta list
(** The lower and upper canonical checks guarding subscript [sub] of
    dimension [dim] of the array — what naive lowering emits before
    every access. *)
