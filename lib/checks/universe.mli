(** A compile's check table: the implication relations between the
    checks of one function compile — the set domain of the optimizer's
    data-flow analyses.

    The table is built on the compile's {!Intern} pool, so a check's
    index is its interned id and its family is the pool's, shared with
    the proof engine. It grows: {!sync} gives every id new since the
    last call its rows, so each pair of checks is related once per
    compile, however many passes ask. Ids are never taken back: a check
    a pass deleted keeps its rows, and the table never assumes its ids
    are the checks the function holds — {!sync} says which are.

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

val create : mode:mode -> oracle:bool -> Intern.t -> t
(** An empty table over the pool. With [oracle], the
    availability-generation sets of [Cross_family_only] and
    [All_implications] are widened by the {!Oracle} decision procedure,
    asked through the pool's refutation memo: a pair of different
    families, over the same atoms, gains an implication when the oracle
    proves it. [ant_gen] is never widened — insertion safety depends on
    the paper's same-family restriction (section 3.2). *)

val sync : t -> Check.t list -> Nascent_support.Bitset.t
(** Intern the checks, give every id the pool holds and the table does
    not yet its rows, and return the set of the checks' ids. A sync cut
    off by a budget leaves only decided pairs behind, and the next sync
    completes the rows. *)

val size : t -> int
(** The universe of every set the table gives: its capacity, which is
    above every id with rows and doubles when the ids outgrow it. *)

val mode : t -> mode
val oracle : t -> bool
val pool : t -> Intern.t

val avail_gen : t -> int -> Nascent_support.Bitset.t
(** Checks made {e available} by performing check [i]: [i] itself plus
    every check it implies (mode-permitting). *)

val covered_by : t -> int -> Nascent_support.Bitset.t
(** Checks whose performance makes check [j] available: the transpose
    of {!avail_gen}. *)

val ant_gen : t -> int -> Nascent_support.Bitset.t
(** Checks made {e anticipatable} by performing check [i]: restricted
    to weaker checks of the same family — the paper's stronger
    condition that keeps insertion points below the definitions of a
    check's symbols (section 3.2). *)

val killed_by_key : t -> int -> Nascent_support.Bitset.t
(** Checks whose range expression mentions the atom with this key
    (killed by a definition of that atom). Every set above is the
    table's own: read it, never write it. *)
