(** IR functions: a CFG of basic blocks plus the tables the analyses
    need (atoms, declared arrays, loop metadata from lowering).

    Blocks are integer-addressed; instruction lists are mutable — the
    optimization passes rebuild them in place. *)

open Types

(** What the analyses derive from the terminators alone, cached on the
    function: one view serves every pass until a terminator changes or
    a block is added. It is keyed by the terminators' physical identity,
    so assigning [b.term] (even to an equal value) or pushing a block is
    all it takes to make the next {!cfg} rebuild it. Everything in it is
    shared: read it, never write it. *)
type cfg = private {
  terms : terminator array;  (** the key: block [i]'s terminator *)
  centry : int;
  succ : int list array;  (** {!succs_of_term} of each block *)
  pred : int list array;  (** predecessors, ascending *)
  order : int list;  (** reverse postorder over reachable blocks *)
  order_num : int array;  (** position in [order]; -1 if unreachable *)
  reach : bool array;
  mutable idom : int array;  (** filled by {!idom} on first use *)
  mutable exits : bool array;  (** filled by {!reaches_exit} on first use *)
}

type t = {
  fname : string;
  mutable params : param list;
  mutable vars : var list;
      (** every scalar, including temps; zero-initialized at entry *)
  mutable arrays : arr list;
  blocks : block Nascent_support.Vec.t;
  mutable entry : int;
  atoms : Atoms.t;
  mutable loops : loop_meta list;  (** lowering-time loop structure *)
  mutable next_vid : int;
  mutable view : cfg option;  (** the last {!cfg} built; see {!cfg} *)
}

val dummy_block : block

val create : name:string -> params:param list -> t

val fresh_var : t -> name:string -> ty:ty -> var
(** Allocate a scalar with a fresh vid, registered in [vars]. *)

val add_array : t -> arr -> unit

val new_block : t -> block
(** Append an empty block (terminator [Ret]) and return it. *)

val block : t -> int -> block
val num_blocks : t -> int
val iter_blocks : (block -> unit) -> t -> unit

val succs : t -> int -> int list

val cfg : t -> cfg
(** The current CFG view: the cached one if every terminator and the
    entry are physically those it was built from, else a new one. *)

val preds_array : t -> int list array
(** [(cfg t).pred]. *)

val reachable : t -> bool array
(** Blocks reachable from entry; analyses ignore the rest. *)

val rpo : t -> int list
(** Reverse postorder over reachable blocks — the iteration order of
    the forward data-flow solvers. *)

val idom : t -> int array
(** Immediate dominators (Cooper–Harvey–Kennedy): the entry maps to
    itself, unreachable blocks to -1. Computed once per view. *)

val dominates : int array -> int -> int -> bool
(** [dominates (idom f) a b]: does block [a] dominate block [b]?
    Reflexive; false when either is unreachable. *)

val reaches_exit : t -> bool array
(** Blocks with a path to a successor-less block; the others sit in
    no-exit regions. Computed once per view. *)

val split_critical_edges : t -> bool
(** Split every edge from a multi-successor block to a
    multi-predecessor block by inserting an empty block, giving PRE
    edge insertions a place to live. Returns true if anything changed. *)

val all_check_metas : t -> check_meta list

val static_counts : t -> int * int
(** [(instructions, checks)] over reachable blocks — Table 1's static
    columns (checks counted separately, as in the paper). *)
