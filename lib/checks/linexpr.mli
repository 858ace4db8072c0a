(** Canonical linear range expressions: sums [c1*a1 + c2*a2 + ...] over
    {!Atom.t}s with non-zero integer coefficients, atoms in strictly
    increasing key order — the paper's "canonical order of symbolic
    terms" (section 2.2).

    The constant part of a check is {e not} stored here; it is folded
    into the check's range constant (see {!Check}). *)

type t

exception Overflow
(** Raised by any coefficient computation whose exact mathematical
    result does not fit in a native [int]. Silent wrapping would turn a
    strong check into a wrong one, so arithmetic here is checked;
    speculative callers (the implication oracle, gcd normalization)
    catch this and degrade to "unknown". *)

val zero : t
(** The empty sum. *)

val is_zero : t -> bool

val of_atom : ?coeff:int -> Atom.t -> t
(** [of_atom ~coeff a] is the single-term expression [coeff * a]
    ([coeff] defaults to 1; a zero coefficient yields {!zero}). *)

val of_terms : (Atom.t * int) list -> t
(** Build from an arbitrary term list: coefficients of repeated atoms
    are summed, zero terms dropped, atoms sorted — the result is
    canonical regardless of input order. *)

val terms : t -> (Atom.t * int) list
(** The canonical term list (sorted, non-zero coefficients). *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

val scale : int -> t -> t
(** [scale k e] is [k * e]; [scale 0 e] is {!zero}. *)

val subst : t -> Atom.t -> t -> t
(** [subst e a limit] replaces atom [a] by the expression [limit]
    (loop-limit substitution: the index variable replaced by its
    extreme value). If [a] does not occur, [e] is returned unchanged. *)

val atoms : t -> Atom.t list
val atom_keys : t -> int list

val mentions_key : t -> int -> bool
(** Does the expression contain the atom with this key? (The kill test
    of the check data-flow analyses.) *)

val coeff_of : t -> Atom.t -> int
(** Coefficient of an atom, 0 if absent. *)

val coeff_of_key : t -> int -> int

val coeff_gcd : t -> int
(** Gcd of the absolute coefficients; 0 for {!zero}. *)

val checked_add : int -> int -> int
(** Exact integer sum, or raise {!Overflow}. *)

val checked_mul : int -> int -> int
(** Exact integer product, or raise {!Overflow}. *)

val compare : t -> t -> int
(** Total order; expressions are equal iff they have identical terms,
    so this is the family key order. *)

val equal : t -> t -> bool
val hash : t -> int
val pp : t Fmt.t
