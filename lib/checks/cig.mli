(** Check Implication Graph (paper section 3.1).

    Nodes are {e families} of checks (checks sharing a range
    expression); an edge [F -> G] with weight [w] asserts that for
    every constant [c], [Check (e_F <= c)] implies
    [Check (e_G <= c + w)]. A check [(F, cf)] is then as strong as
    [(G, cg)] iff [cf + W(F, G) <= cg], where [W] is the shortest
    implication-path weight (the trivial path gives the within-family
    rule [cf <= cg]).

    When two edges connect the same pair of families the minimum weight
    is kept — the tighter implication subsumes the looser one (the
    paper's Figure 4 bookkeeping). *)

type t

type family_id = int

val create : unit -> t

val family_of_expr : t -> Linexpr.t -> family_id
(** Intern a range expression, allocating a fresh family id on first
    sight. *)

val family_of_check : t -> Check.t -> family_id

val add_implication : t -> from:Check.t -> to_:Check.t -> unit
(** [add_implication t ~from ~to_] records that [from] implies [to_],
    generalized shift-invariantly to their families (edge weight
    [constant to_ - constant from]). *)

val path_weight : t -> family_id -> family_id -> int option
(** Shortest implication-path weight ([Some 0] for [f = g]); [None]
    when no implication path exists. Computed by Floyd–Warshall over
    the (small) family graph and cached until the graph changes. *)

val as_strong_as : t -> strong:family_id * int -> weak:family_id * int -> bool
(** [as_strong_as t ~strong:(f, cf) ~weak:(g, cg)]: does performing
    check [(f, cf)] make [(g, cg)] redundant? *)
