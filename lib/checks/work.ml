(* Deterministic work counts of the proof engine (see the interface).
   The counters only ever grow; a compile reads them before and after
   and keeps the difference. They are per domain, as the ambient fuel
   of {!Nascent_support.Guard} is, so concurrent compiles on a pool
   never count each other's work. *)

type t = { visits : int; goals : int; refutations : int; rounds : int }

type counters = {
  mutable c_visits : int;
  mutable c_goals : int;
  mutable c_refutations : int;
  mutable c_rounds : int;
}

let key =
  Domain.DLS.new_key (fun () -> { c_visits = 0; c_goals = 0; c_refutations = 0; c_rounds = 0 })

let visit () =
  let c = Domain.DLS.get key in
  c.c_visits <- c.c_visits + 1

let goal () =
  let c = Domain.DLS.get key in
  c.c_goals <- c.c_goals + 1

let refutation () =
  let c = Domain.DLS.get key in
  c.c_refutations <- c.c_refutations + 1

let round () =
  let c = Domain.DLS.get key in
  c.c_rounds <- c.c_rounds + 1

let zero = { visits = 0; goals = 0; refutations = 0; rounds = 0 }

let now () =
  let c = Domain.DLS.get key in
  { visits = c.c_visits; goals = c.c_goals; refutations = c.c_refutations; rounds = c.c_rounds }

let add a b =
  {
    visits = a.visits + b.visits;
    goals = a.goals + b.goals;
    refutations = a.refutations + b.refutations;
    rounds = a.rounds + b.rounds;
  }

let since a =
  let b = now () in
  {
    visits = b.visits - a.visits;
    goals = b.goals - a.goals;
    refutations = b.refutations - a.refutations;
    rounds = b.rounds - a.rounds;
  }

let fields t =
  [
    ("fixpoint_visits", t.visits);
    ("oracle_goals", t.goals);
    ("fm_refutations", t.refutations);
    ("fm_rounds", t.rounds);
  ]
