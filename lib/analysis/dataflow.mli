(** Bit-vector data-flow problems over the fixpoint engine
    ({!Nascent_ir.Fixpoint}).

    Both check analyses are {e must} problems (intersection confluence)
    whose per-block transfer is kill-then-gen; a problem is per-block
    GEN/KILL sets, a direction, and a boundary value, solved to the
    maximal fixed point from an optimistic top value, in place.

    Unreachable blocks keep the optimistic value; clients only consult
    reachable blocks. *)

module Bitset = Nascent_support.Bitset

type direction = Nascent_ir.Fixpoint.direction = Forward | Backward

type block_transfer = { gen : Bitset.t; kill : Bitset.t }
(** Transfer [X -> (X \ kill) ∪ gen]. *)

type result = {
  in_ : Bitset.t array;  (** value at each block's entry *)
  out : Bitset.t array;  (** value at each block's exit *)
}

val solve :
  Nascent_ir.Func.t ->
  top:Bitset.t ->
  direction:direction ->
  boundary:Bitset.t ->
  transfer:block_transfer array ->
  result
(** [top] is the optimistic value every block starts from, and its
    universe the problem's; [boundary] is the value at the entry
    (forward) or at every exit block and no-exit block (backward). [in_]/[out] are named by
    {e program} position in both directions.
    @raise Nascent_support.Guard.Fuel_exhausted after [8n + 64] sweeps
    without a fixpoint. *)
