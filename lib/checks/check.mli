(** Canonical range checks:
    [Check (range-expression <= range-constant)] (paper section 2.2).

    Construction normalizes:
    - all constants folded into the range constant;
    - lower-bound checks [lo <= e] negated into [-e <= -lo].

    Semantically equivalent checks therefore fall in the same {e family}
    (same range expression): the paper's Figure 1 checks [2*N <= 10]
    and [2*N-1 <= 10] become family [2*N] with constants 10 and 11, and
    the implication between them is a constant comparison — within a
    family, {e smaller constant = stronger check}. *)

type t

val make : Linexpr.t -> int -> t
(** [make e k] is the canonical form of [e <= k]. *)

val upper : sub:Linexpr.t * int -> bound:Linexpr.t * int -> t
(** [upper ~sub:(se, sc) ~bound:(be, bc)] is the canonical upper-bound
    check [se + sc <= be + bc], i.e. [se - be <= bc - sc]. *)

val lower : sub:Linexpr.t * int -> bound:Linexpr.t * int -> t
(** [lower ~sub ~bound] is the canonical lower-bound check
    [bound <= sub], negated into [<=] form. *)

val lhs : t -> Linexpr.t
(** The range expression (the family key). *)

val constant : t -> int
(** The range constant. *)

val same_family : t -> t -> bool
(** Do the two checks share a range expression? *)

val implies_within_family : t -> t -> bool
(** [implies_within_family a b] iff [a] and [b] are in the same family
    and [a] is at least as strong ([constant a <= constant b]). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Cached at construction, as is the hash of the range expression, so
    that {!Families} hashes a check in O(1). *)

(** Dense family ids: the first family a table meets is 0, the next 1,
    and so on. *)
module Families : sig
  type check := t
  type t

  val create : unit -> t

  val id : t -> check -> int
  (** The id of the check's family, allocated on first sight. *)
end

val compile_time_value : t -> bool option
(** [Some v] when the check has no symbolic terms ([0 <= k]); step 5 of
    the optimizer deletes true checks and turns false ones into TRAPs. *)

val mentions_key : t -> int -> bool
(** Is the check killed by a definition of the atom with this key? *)

val atom_keys : t -> int list
(** The keys of the range expression's atoms, increasing. *)

val gcd_normalize : t -> t
(** Re-normalize an existing check with the gcd rule. *)

val pp : t Fmt.t
(** Prints in the paper's notation, [Check (e <= k)]. *)
