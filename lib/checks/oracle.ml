(* Omega-lite implication oracle over canonical checks.

   The CIG proves implications only *within* a syntactic family (same
   range expression, constant comparison). This module decides the
   cross-family cases — conjunctions of linear inequalities over the
   same atom vocabulary — by refutation with Fourier–Motzkin variable
   elimination plus gcd tightening:

     hyps |= goal   iff   hyps /\ not(goal) is unsatisfiable

   where not(e <= k) is (-e <= -k-1) over the integers.

   Soundness: every elimination step is satisfiability-preserving in
   one direction — an integer solution of the input system yields a
   solution of the projected system, and gcd tightening
   (g*e <= k <=> e <= floor(k/g), g > 0) is an integer equivalence. So
   a derived contradiction (0 <= k with k < 0) really refutes the
   system and [implies] answering [true] is always sound.

   Incompleteness: integer projection can need Omega's dark shadow,
   which we do not implement, and the fuel bound can stop elimination
   early. Both cases answer [false] ("unknown"), which merely keeps a
   check the optimizer might have deleted — conservative in the safe
   direction.

   Never hangs: the engine charges a local {!Guard} fuel budget per
   combination step and additionally ticks the ambient budgets, so a
   pathological system exhausts the oracle's own fuel (answer: false)
   long before it could wedge a pass, and the per-pass watchdog still
   observes the work. *)

module Guard = Nascent_support.Guard

let fuel_budget = 4096
let budget_name = "oracle"

let max_constraints = 256
(* Growth cap per elimination round: FM is worst-case quadratic per
   variable; past this many live constraints we give up (unknown)
   rather than churn fuel on a system we will not refute. *)

(* A constraint is a canonical check: lhs <= k. *)

(* gcd-tighten: g*e <= k  <=>  e <= floor(k/g). Detects the empty-lhs
   contradiction as a side effect. *)
let tighten (c : Check.t) : Check.t =
  let lhs = Check.lhs c in
  let g = Linexpr.coeff_gcd lhs in
  if g > 1 then Check.make_gcd lhs (Check.constant c) else c

(* [Some false] = refuted, [Some true] = trivially true (drop),
   [None] = still symbolic. *)
let decided (c : Check.t) = Check.compile_time_value c

(* Keep only the strongest constraint per family. Bounds growth and
   makes the pos*neg pairing below cheaper. *)
let dedup (cs : Check.t list) : Check.t list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let key = Check.family_key c in
      match Hashtbl.find_opt tbl key with
      | Some k when k <= Check.constant c -> ()
      | _ -> Hashtbl.replace tbl key (Check.constant c))
    cs;
  Hashtbl.fold (fun lhs k acc -> Check.make lhs k :: acc) tbl []

exception Refuted
exception Unknown

(* Pick the variable with the fewest pos*neg pairings (the classic FM
   heuristic); atoms are identified by key. *)
let pick_var (cs : Check.t list) : int option =
  let score = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun (a, coeff) ->
          let k = Atom.key a in
          let pos, neg = Option.value (Hashtbl.find_opt score k) ~default:(0, 0) in
          let entry = if coeff > 0 then (pos + 1, neg) else (pos, neg + 1) in
          Hashtbl.replace score k entry)
        (Linexpr.terms (Check.lhs c)))
    cs;
  Hashtbl.fold
    (fun k (pos, neg) best ->
      let cost = pos * neg in
      match best with
      | Some (_, best_cost) when best_cost <= cost -> best
      | _ -> Some (k, cost))
    score None
  |> Option.map fst

(* Eliminate atom key [x]: pair every constraint where x has positive
   coefficient with every one where it is negative. For a*x + p <= kp
   (a > 0) and -b*x + n <= kn (b > 0):
     b*(a*x + p) + a*(-b*x + n) <= b*kp + a*kn
   cancels x exactly. *)
let eliminate fuel x (cs : Check.t list) : Check.t list =
  let pos, neg, rest =
    List.fold_left
      (fun (pos, neg, rest) c ->
        let coeff = Linexpr.coeff_of_key (Check.lhs c) x in
        if coeff > 0 then (c :: pos, neg, rest)
        else if coeff < 0 then (pos, c :: neg, rest)
        else (pos, neg, c :: rest))
      ([], [], []) cs
  in
  let combined = ref rest in
  List.iter
    (fun p ->
      let a = Linexpr.coeff_of_key (Check.lhs p) x in
      List.iter
        (fun n ->
          Guard.tick fuel;
          Guard.tick_ambient ();
          let b = -Linexpr.coeff_of_key (Check.lhs n) x in
          let lhs =
            Linexpr.add
              (Linexpr.scale b (Check.lhs p))
              (Linexpr.scale a (Check.lhs n))
          in
          let k =
            Linexpr.checked_add
              (Linexpr.checked_mul b (Check.constant p))
              (Linexpr.checked_mul a (Check.constant n))
          in
          let c = tighten (Check.make lhs k) in
          match decided c with
          | Some false -> raise Refuted
          | Some true -> ()
          | None -> combined := c :: !combined)
        neg)
    pos;
  !combined

let unsat_exn fuel (cs : Check.t list) : bool =
  let prepare cs =
    List.filter_map
      (fun c ->
        let c = tighten c in
        match decided c with
        | Some false -> raise Refuted
        | Some true -> None
        | None -> Some c)
      cs
  in
  let rec go cs =
    Guard.tick fuel;
    Guard.tick_ambient ();
    let cs = dedup cs in
    if List.length cs > max_constraints then raise Unknown;
    match pick_var cs with
    | None -> false (* purely constant system, nothing refuted: sat *)
    | Some x -> go (prepare (eliminate fuel x cs))
  in
  match prepare cs with [] -> false | cs -> go cs

module Key_set = Set.Make (Int)

(* Slice the hypotheses to the connected component of the goal's atom
   vocabulary: a hypothesis whose atoms never (transitively) touch the
   goal's cannot participate in a refutation, and dropping it up front
   keeps elimination from burning fuel on irrelevant constraints.
   Returns [(connected, rest)]; [rest] keeps the original hypothesis
   order. *)
let slice ~(hyps : Check.t list) (goal : Check.t) : Check.t list * Check.t list =
  (* A constant hypothesis (empty atom set) never "touches" anything,
     but must survive the slice: when false (0 <= -1) it refutes the
     whole system by itself — [prepare] raises Refuted on it — and when
     true it is dropped for free. Slicing it away would lose exactly
     the Farkas certificates built on a contradictory hypothesis. *)
  let constant, hyps = List.partition (fun h -> Check.atom_keys h = []) hyps in
  let rec grow keys pending kept =
    let touching, rest =
      List.partition
        (fun h -> List.exists (fun k -> Key_set.mem k keys) (Check.atom_keys h))
        pending
    in
    match touching with
    | [] -> (kept, pending)
    | _ ->
        let keys =
          List.fold_left
            (fun ks h -> List.fold_left (fun ks k -> Key_set.add k ks) ks (Check.atom_keys h))
            keys touching
        in
        grow keys rest (List.rev_append touching kept)
  in
  grow (Key_set.of_list (Check.atom_keys goal)) hyps constant

(* not(e <= k) = (e > k) = (-e <= -k-1). *)
let negate (c : Check.t) : Check.t =
  Check.make
    (Linexpr.neg (Check.lhs c))
    (Linexpr.checked_add (-Check.constant c) (-1))

(* A per-compile memo of refutations. An answer is a function of the
   exact input: the oracle's own fuel is fresh per query, and every
   other source of [false] (overflow, the constraint cap,
   incompleteness) is deterministic. So a hit returns exactly what
   re-running the query would. The key is the constraint list as given
   — [dedup] and [pick_var] iterate hash tables filled in list order,
   so a permuted list is a different query — stored as an array, a
   third of the list's memory. Only completed answers are stored: an
   ambient budget or deadline that fires mid-query propagates and
   records nothing. *)
module Cache = struct
  module Tbl = Hashtbl.Make (struct
    type t = Check.t array

    let equal a b = Array.length a = Array.length b && Array.for_all2 Check.equal a b
    let hash cs = Array.fold_left (fun h c -> (h * 31) + Check.hash c) 0 cs
  end)

  type t = bool Tbl.t

  let create () : t = Tbl.create 64
end

let unsat ?cache (cs : Check.t list) : bool =
  let run () =
    let fuel = Guard.fuel ~what:budget_name ~budget:fuel_budget in
    try unsat_exn fuel cs
    with
    | Refuted -> true
    | Unknown | Linexpr.Overflow -> false
    | Guard.Fuel_exhausted w when w = budget_name -> false
  in
  match cache with
  | None -> run ()
  | Some c -> (
      let key = Array.of_list cs in
      match Cache.Tbl.find_opt c key with
      | Some v -> v
      | None ->
          let v = run () in
          Cache.Tbl.add c key v;
          v)

(* With a [cache], the refutations are memoised, not the implication
   itself: different hypothesis sets often slice to the same connected
   component, and the caller (the validator) already memoises whole
   questions on a more compact key. *)
let implies ?cache ~hyps (goal : Check.t) : bool =
  (* Fast path: the within-family constant comparison needs no
     elimination and covers most queries the CIG already answers. *)
  List.exists (fun h -> Check.implies_within_family h goal) hyps
  ||
  match negate goal with
  | exception Linexpr.Overflow -> false
  | ng ->
      let connected, rest = slice ~hyps goal in
      unsat ?cache (ng :: connected)
      || (* The sliced-away hypotheses share no atoms with the goal's
            component, so they cannot interact with [ng] — but they can
            be unsatisfiable among THEMSELVES, and a contradictory
            hypothesis set implies everything. Variable-disjoint blocks
            are unsat iff some block is: checking the remainder
            separately restores exactly the refutations the slice
            removed, and costs nothing when the slice kept every
            hypothesis. *)
      (rest <> [] && unsat ?cache rest)
