(** Fixed-universe mutable bitsets over [0, n).

    Used as the set domain of the check data-flow analyses: the universe
    (every canonical check of a function) is fixed before solving, and
    set operations are word-parallel. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0, n). *)

val full : int -> t
(** [full n] is the complete set over universe [0, n). *)

val universe : t -> int
(** Size of the universe the set ranges over. *)

val copy : t -> t
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val clear : t -> unit

val fill : t -> unit
(** Set every element of the universe. *)

val union_into : into:t -> t -> unit
val inter_into : into:t -> t -> unit
val diff_into : into:t -> t -> unit

val union_diff_into : into:t -> t -> t -> unit
(** [union_diff_into ~into a b] adds [a \ b] to [into], with no
    intermediate set. *)

val assign : into:t -> t -> unit
(** [assign ~into src] overwrites [into] with the contents of [src]. *)

val equal : t -> t -> bool
val is_empty : t -> bool
val disjoint : t -> t -> bool
val cardinal : t -> int
val subset : t -> t -> bool
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t
val pp : t Fmt.t
