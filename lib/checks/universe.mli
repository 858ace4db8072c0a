(** A frozen universe of canonical checks with precomputed implication
    relations — the set domain of the optimizer's data-flow analyses.

    The three implication modes correspond to the paper's Table 3
    ablations:
    - [All_implications]: full use of the CIG (the default);
    - [No_implications]: a check implies only itself (the primed NI'
      and SE' variants);
    - [Cross_family_only]: within-family implication disabled, edges
      between different families kept (the LLS' variant, which
      preserves the implications from preheader conditional checks to
      the loop-body checks they cover). *)

type mode = No_implications | Cross_family_only | All_implications

val mode_name : mode -> string

type t

val build : cig:Cig.t -> mode:mode -> ?oracle:Oracle.Cache.t -> Check.t list -> t
(** Freeze the distinct checks of the list into an indexed universe.
    Implication queries go through [cig], which the caller has already
    populated with any cross-family edges. Given an [oracle] cache (the
    compile's own), the availability-generation sets are additionally
    widened by the {!Oracle} decision procedure: cross-family pairs the
    CIG cannot relate syntactically gain an implication edge when the
    oracle proves it. [ant_gen] is never widened — insertion safety depends
    on the paper's same-family restriction (section 3.2). *)

val size : t -> int
val mode : t -> mode

val check : t -> int -> Check.t
(** The check at an index. *)

val index_of : t -> Check.t -> int option
val index_of_exn : t -> Check.t -> int

val family : t -> int -> Cig.family_id

val avail_gen : t -> int -> Nascent_support.Bitset.t
(** Checks made {e available} by performing check [i]: [i] itself plus
    every check it implies (mode-permitting, CIG-wide). *)

val ant_gen : t -> int -> Nascent_support.Bitset.t
(** Checks made {e anticipatable} by performing check [i]: restricted
    to weaker checks of the same family — the paper's stronger
    condition that keeps insertion points below the definitions of a
    check's symbols (section 3.2). *)

val killed_by_key : t -> int -> Nascent_support.Bitset.t
(** Checks whose range expression mentions the atom with this key
    (killed by a definition of that atom). The set is the universe's
    own, as the gen sets are: read it, never write it. *)

val pp : t Fmt.t
