(** A compile's interned checks: the proof engine's identity for every
    check it meets.

    Each distinct check (by {!Check.equal}) gets a dense id in the order
    the engine first meets it, and each family an id of its own. Fact
    sets are {!Ids} sets: sorted id arrays with a cached hash, so
    membership, union, intersection and equality compare integers, and
    a table keyed by a fact set hashes it in O(1). The pool also keeps
    one {!Oracle.Hyps} handle per fact set and the {!Oracle.Cache} of
    refutations beneath them.

    Ids carry no order of their own: wherever the order of facts
    reaches an answer — the hypotheses of a handle, the conditional
    facts of a closure — {!elements} and {!conds} give them in the
    structural {!Check.compare} order, as a set of checks ordered by it
    would. One pool serves one compile; it is not thread-safe. *)

module Ids : sig
  type t

  val empty : t
  val equal : t -> t -> bool
  val mem : int -> t -> bool
  val add : int -> t -> t
  val union : t -> t -> t
  val inter : t -> t -> t

  val filter : (int -> bool) -> t -> t
  (** A result equal to the operand is the operand itself, as for
      {!union} and {!inter}. *)

  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
  val of_list : int list -> t
end

type t

val create : unit -> t

val oracle : t -> Oracle.Cache.t
(** The compile's refutation memo. *)

val id : t -> Check.t -> int
(** The check's id, interning it on first sight. *)

val size : t -> int
(** The checks interned have the ids [0 .. size - 1]. *)

val check : t -> int -> Check.t

val family : t -> int -> int
(** Equal for two checks iff they share a range expression. *)

val keys : t -> int -> int list
(** The check's {!Check.atom_keys}. *)

val of_checks : t -> Check.t list -> Ids.t

val elements : t -> Ids.t -> Check.t list
(** The set's checks in {!Check.compare} order. *)

val mentions : t -> int list -> int -> bool
(** [mentions t keys i]: does check [i] mention an atom of [keys]?
    Apply it to [keys] once and ask it of many checks: most are ruled
    out by one word of the keys' bits. *)

val kill : t -> int list -> Ids.t -> Ids.t
(** The set without the checks that mention an atom of [keys]. *)

val shift : t -> int -> key:int -> by:int -> int
(** [shift t i ~key ~by]: check [i] with the atom [key] replaced by
    [key - by], that is [a*key + r <= k] as [a*key + r <= k + a*by]; -1
    when the constant overflows. Each shift is computed once. *)

val implied : t -> Ids.t -> int -> bool
(** [implied t s i]: is check [i] a compile-time truth, or no stronger
    than a check of its own family in [s]? No oracle is asked. *)

val handle : t -> Ids.t -> Oracle.Hyps.t
(** The set's hypothesis handle over {!elements}, built on first use. *)

(** {2 Conditional facts}

    [guards => fact], interned like checks, in an id space of their
    own. *)

val cond : t -> Check.t list -> Check.t -> int
(** [cond t guards fact]: the conditional fact's id; the guards' order
    does not matter. *)

val conds : t -> Ids.t -> (Check.t list * Check.t) list
(** The set's conditional facts, guards sorted, ordered by their guards
    and then their fact, each by {!Check.compare}. *)

val kill_conds : t -> int list -> Ids.t -> Ids.t
(** The set without the conditional facts that mention an atom of
    [keys]. *)
