(** Omega-lite implication oracle over canonical checks.

    Decides [hyps |= goal] for conjunctions of linear inequalities
    [e <= k] over {!Atom.t}s by refutation: negate the goal
    ([not (e <= k)] is [-e <= -k-1] over the integers) and run
    Fourier–Motzkin variable elimination with gcd tightening until a
    constant contradiction [0 <= k], [k < 0] appears.

    The kernel maps the query's atoms to columns and keeps each row as
    an [int] coefficient array. Rows with the same coefficients merge
    on insert, keeping the strongest constant; per-column counts of
    positive and negative coefficients are kept current as rows come
    and go, so each round picks the column with the fewest pairings
    (lowest-numbered on a tie) without rescanning. A round past
    [256] live rows gives up.

    Pure OCaml, no external solver. Every round and every combination
    step charges a local {!Nascent_support.Guard} fuel budget (and
    ticks the ambient budgets, so per-pass watchdogs observe the
    work); exhaustion,
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

(** A hypothesis handle: one fact set, split once into variable-disjoint
    components (union–find over atom keys), answering any number of
    goals. A goal runs elimination on its negation plus the components
    its atoms touch; if that fails, the goal still holds when an
    untouched component is unsatisfiable (a contradictory set implies
    everything). Each component's satisfiability is decided once, the
    first time a goal needs it. Goals are memoised inside the handle,
    and the refutations
    beneath them in the optional {!Cache}. Only completed answers are
    stored, so a query cut off by an ambient budget or deadline leaves
    the handle as it found it. Not thread-safe. *)
module Hyps : sig
  type t

  val make : ?cache:Cache.t -> Check.t list -> t

  val implies : t -> Check.t -> bool
  (** [implies h goal]: the answer {!val-implies} gives on the same
      hypotheses. *)
end

val implies : ?cache:Cache.t -> hyps:Check.t list -> Check.t -> bool
(** [implies ~hyps goal]: does the conjunction of [hyps] entail [goal]?
    Sound when [true]; [false] means "could not prove", not "refuted".
    A one-query {!Hyps} handle; [cache] memoises the refutations it
    runs. *)

val unsat : ?cache:Cache.t -> Check.t list -> bool
(** Is the conjunction of constraints unsatisfiable over the integers?
    Sound when [true]. *)
