(** Instrumented IR interpreter.

    Stands in for the paper's instrumented-C back-end: it executes the
    program and reports {e dynamic counts} — instruction units and
    range checks — the measurements behind Tables 1–3.

    Counting model:
    - every evaluated expression node costs one instruction unit,
      charged before its operands, which are evaluated left to right
      ([And]/[Or] evaluate both sides);
    - every executed non-check instruction costs one unit, charged
      after its operands, and every terminator one unit;
    - an executed [Check] counts as one range check (checks are counted
      separately from instructions, as in the paper); the nodes of its
      opaque atoms cost instruction units as they are evaluated;
    - a [Cond_check] evaluates its guard (instruction units) and counts
      one range check only when the guard holds.

    Execution model: {!run} first compiles every function of the
    program into OCaml closures, then runs them. Lookups are resolved
    at compile time: each block tail-calls its successor's closure (no
    dispatcher, a constant stack per call), arrays get frame slots,
    callees are bound, each check reads its atoms through precompiled
    readers, and an array's strides are computed once, when its dims
    are fixed. Where the static types prove it, expressions evaluate to
    unboxed ints and floats; the rest (and every program whose stores
    would break typed storage, possible only in hand-built IR) runs on
    generic closures over {!Value.t} that replay the dynamic type
    dispatch. The counts, the outcome and the point where fuel runs out
    are the same either way. The compiled code belongs to one run, so
    concurrent runs of one program share nothing mutable.

    Semantics: scalars are zero-initialized and passed by value; arrays
    are allocated from their (entry-evaluated) declared dims, passed by
    reference, and addressed column-major through the callee's own
    dims, fixed on first touch. A failed check raises a trap; integer
    division by zero, out-of-storage accesses (possible only if
    checking was subverted), ill-typed values and malformed calls are
    reported as errors, distinct from traps. *)

type outcome = {
  printed : Value.t list;  (** observable output, in order *)
  trap : string option;  (** range-check trap, if any *)
  error : string option;  (** non-trap runtime error *)
  instrs : int;  (** dynamic instruction units (non-check) *)
  checks : int;  (** dynamic range checks executed *)
  cond_guards : int;  (** conditional-check guard evaluations *)
  fuel_exhausted : bool;
}

val default_fuel : int

val run : ?fuel:int -> Nascent_ir.Program.t -> outcome
(** Execute from the main program unit. Never raises: traps, errors and
    fuel exhaustion are reported in the outcome, with the counters
    accumulated up to the unit (or check) where the run stopped. *)

val pp_outcome : outcome Fmt.t
