(** Dominator computation (Cooper–Harvey–Kennedy iterative algorithm)
    plus dominance frontiers and dominator-tree children. Dominance
    queries are {!Nascent_ir.Func.dominates}.

    Operates on reachable blocks only; unreachable blocks report no
    dominator and dominate nothing. *)

type t

val compute : Nascent_ir.Func.t -> t

val idom : t -> int -> int option
(** Immediate dominator; [Some entry] for the entry block itself,
    [None] for unreachable blocks. *)

val reachable : t -> int -> bool

val children : t -> int list array
(** Dominator-tree children, for tree walks (SSA renaming). *)

val frontiers : t -> int list array
(** Dominance frontiers (Cytron et al.), for phi placement. *)
