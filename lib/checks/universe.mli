(** A frozen universe of canonical checks with precomputed implication
    relations — the set domain of the optimizer's data-flow analyses.

    The three implication modes correspond to the paper's Table 3
    ablations:
    - [All_implications]: a check implies the weaker checks of its
      family (the default);
    - [No_implications]: a check implies only itself (the primed NI'
      and SE' variants);
    - [Cross_family_only]: within-family implication disabled, only
      implications between different families kept (the LLS' variant).

    Syntactic implication never crosses a family. Cross-family
    implication between two checks comes only from the {!Oracle}; the
    paper's preheader-to-body implication is the preheader pass deleting
    the body check it covers. *)

type mode = No_implications | Cross_family_only | All_implications

val mode_name : mode -> string

val family_implies : mode -> Check.t -> Check.t -> bool
(** [family_implies mode a b]: does performing [a] make [b] redundant
    by the family rule [mode] allows — [a] at least as strong as [b] in
    [b]'s family under [All_implications], [a] equal to [b] otherwise? *)

type t

val build : mode:mode -> ?oracle:Oracle.Cache.t -> Check.t list -> t
(** Freeze the distinct checks of the list into an indexed universe.
    Within a family, implication is {!family_implies}. Given an
    [oracle] cache (the compile's own), the availability-generation sets
    of [Cross_family_only] and [All_implications] are widened by the
    {!Oracle} decision procedure: a pair of different families, over the
    same atoms, gains an implication when the oracle proves it.
    [ant_gen] is never widened — insertion safety depends on the paper's
    same-family restriction (section 3.2). *)

val size : t -> int
val mode : t -> mode

val check : t -> int -> Check.t
(** The check at an index. *)

val index_of : t -> Check.t -> int option

val family : t -> int -> int
(** The family id of the check at an index: equal for two checks of one
    universe iff they share a range expression. *)

val avail_gen : t -> int -> Nascent_support.Bitset.t
(** Checks made {e available} by performing check [i]: [i] itself plus
    every check it implies (mode-permitting). *)

val ant_gen : t -> int -> Nascent_support.Bitset.t
(** Checks made {e anticipatable} by performing check [i]: restricted
    to weaker checks of the same family — the paper's stronger
    condition that keeps insertion points below the definitions of a
    check's symbols (section 3.2). *)

val killed_by_key : t -> int -> Nascent_support.Bitset.t
(** Checks whose range expression mentions the atom with this key
    (killed by a definition of that atom). The set is the universe's
    own, as the gen sets are: read it, never write it. *)
