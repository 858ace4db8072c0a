(** IR expression utilities. *)

open Types

val vars_of : ?acc:var list -> expr -> var list
(** The distinct scalar variables read by the expression (accumulated
    onto [acc]). *)

val has_load : expr -> bool
(** Does the expression read any array element? Loads matter for
    invariance: a store may change them even when no scalar is
    redefined. *)

val size : expr -> int
(** Node count — the instrumented interpreter's per-evaluation
    instruction charge. *)

val equal : expr -> expr -> bool
(** Structural equality (used to hash-cons opaque atoms and deduplicate
    guards). *)

val fold : expr -> expr
(** Constant folding; used by compile-time check evaluation (step 5)
    and guard simplification. Preserves semantics exactly (integer
    division by zero is left unfolded). *)

val binop_name : binop -> string
val pp : expr Fmt.t
