(** The one fixpoint engine: every global data-flow problem of the
    optimizer, the verifier and the certificate is an instance of it.

    The engine owns what the problems share: the sweep order (reverse
    postorder, reversed for backward problems), re-evaluating only the
    blocks some source of which changed, the sweep cap, one
    {!Nascent_support.Guard.tick_ambient} per block visit, and the
    boundary blocks — the entry of a forward problem; every exit of a
    backward one, and every block in a no-exit region (an SCC with no
    path to an exit), where no path to an exit means nothing is
    anticipated along one. Everything comes from the function's shared
    CFG view ({!Func.cfg}). Only reachable blocks are ever visited. *)

type direction = Forward | Backward

type 'a fact =
  | Unreachable  (** no execution gets here: the identity of every join *)
  | Reached of 'a

val iterate : ?cap:int -> Func.t -> direction -> (sweep:int -> int -> int list -> bool) -> bool
(** [iterate f dir visit] sweeps until a sweep changes nothing and
    returns [true], or gives up after [cap] sweeps that each
    changed something (default: no cap; the ambient tick still bounds
    it) and returns [false]. [visit ~sweep b sources] re-evaluates block
    [b] in sweep [sweep] (from 1) and says whether its result changed,
    which makes [b]'s dependents stale. [sources] are [b]'s
    predecessors (forward) or successors (backward), all of them, or
    [[]] when [b] is a boundary block. For problems that keep their
    state themselves, such as bit vectors updated in place. *)

type 'a problem = {
  direction : direction;
  boundary : 'a fact;  (** the value flowing into a boundary block *)
  join : sweep:int -> prev:'a fact -> int -> (int * 'a) list -> 'a fact;
      (** [join ~sweep ~prev b live]: the value flowing into [b] from
          its live sources, each with its result; [prev] is what the
          last visit computed ([Unreachable] before the first). [live]
          is empty when every source is [Unreachable] or unvisited:
          [Unreachable] is then the exact answer, anything else a
          stand-in. *)
  transfer : int -> 'a -> 'a fact;
      (** block [b]'s effect; [Unreachable] past an unconditional trap *)
  equal : 'a -> 'a -> bool;
}

type 'a solution = {
  flow_in : 'a fact array;
      (** each block's joined value: at its entry (forward) or its exit
          (backward) *)
  flow_out : 'a fact array;  (** each block's transferred value *)
  converged : bool;  (** [false]: stopped at the cap, not a fixpoint *)
}

val solve : ?cap:int -> ?seed:(int -> 'a) -> Func.t -> 'a problem -> 'a solution
(** Solve [problem] by {!iterate}. Unvisited and
    unreachable blocks hold [Unreachable]. A block's first visit
    always counts as a change; after it, a block whose joined value is
    unchanged keeps its result without running its transfer. With
    [seed], every reachable block starts as already visited, from
    [seed b] and its transfer. *)
