(** Omega-lite implication oracle over canonical checks.

    Decides [hyps |= goal] for conjunctions of linear inequalities
    [e <= k] over {!Atom.t}s by refutation: negate the goal
    ([not (e <= k)] is [-e <= -k-1] over the integers) and run
    Fourier–Motzkin variable elimination with gcd tightening until a
    constant contradiction [0 <= k], [k < 0] appears.

    Pure OCaml, no external solver. Every combination step charges a
    local {!Nascent_support.Guard} fuel budget (and ticks the ambient
    budgets, so per-pass watchdogs observe the work); exhaustion,
    coefficient {!Linexpr.Overflow}, and the incompleteness of rational
    projection over the integers all degrade to [false] ("unknown") —
    the conservative answer that merely keeps a check.

    A [true] answer is always sound: the refutation is a genuine
    integer-arithmetic proof that every model of the hypotheses
    satisfies the goal. *)

val fuel_budget : int
(** Combination-step budget per query (the bound that guarantees the
    oracle can never hang a pass). *)

(** Per-compile memo of {!unsat} answers, keyed on the exact query: the
    constraint list, in order. A hit returns exactly the answer a fresh
    query would: every query runs on its own fresh fuel and is
    otherwise deterministic. Only completed answers are stored — an
    ambient budget or deadline firing mid-query propagates and records
    nothing. A cache is not thread-safe; give each compile its own. *)
module Cache : sig
  type t

  val create : unit -> t
end

val implies : ?cache:Cache.t -> hyps:Check.t list -> Check.t -> bool
(** [implies ~hyps goal]: does the conjunction of [hyps] entail [goal]?
    Sound when [true]; [false] means "could not prove", not "refuted".
    [cache] memoises the refutations the query runs, not the
    implication itself. *)

val unsat : ?cache:Cache.t -> Check.t list -> bool
(** Is the conjunction of constraints unsatisfiable over the integers?
    Sound when [true]. *)
