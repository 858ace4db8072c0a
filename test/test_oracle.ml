(* The Fourier–Motzkin implication oracle (lib/checks/oracle.ml).

   Three angles:
   - soundness: a [true] answer is checked against a brute-force
     enumeration of a finite integer box — if the oracle claims
     [hyps |= goal] then no assignment in the box may satisfy the
     hypotheses and violate the goal;
   - coverage: everything the family rule proves syntactically
     (within-family constant comparison) the oracle proves too, and so is every
     nonnegative linear combination of the hypotheses (the rational
     Farkas certificates FM is complete for);
   - degradation: coefficient overflow and fuel exhaustion answer
     [false] ("unknown"), never raise, never wedge. *)

open Util
module Atom = Nascent_checks.Atom
module Linexpr = Nascent_checks.Linexpr
module Check = Nascent_checks.Check
module Oracle = Nascent_checks.Oracle
module G = QCheck.Gen

let atoms = Array.init 3 (fun k -> Atom.make ~key:k ~name:(Printf.sprintf "v%d" k))
let x = atoms.(0)
let y = atoms.(1)
let z = atoms.(2)

(* --- brute-force reference over a finite box -------------------------- *)

let eval env c =
  List.fold_left
    (fun acc (a, coeff) -> acc + (coeff * env.(Atom.key a)))
    0
    (Linexpr.terms (Check.lhs c))
  <= Check.constant c

(* [-4, 4]^3: 729 assignments, enough to falsify any wrong implication
   the small-coefficient generator below can express. *)
let dom = 4

let forall_env f =
  let ok = ref true in
  for vx = -dom to dom do
    for vy = -dom to dom do
      for vz = -dom to dom do
        if !ok && not (f [| vx; vy; vz |]) then ok := false
      done
    done
  done;
  !ok

let box_implies hyps goal =
  forall_env (fun env -> (not (List.for_all (eval env) hyps)) || eval env goal)

let box_unsat cs = forall_env (fun env -> not (List.for_all (eval env) cs))

(* --- generators ------------------------------------------------------- *)

let mk coeffs k =
  Check.make (Linexpr.of_terms (List.mapi (fun i c -> (atoms.(i), c)) coeffs)) k

let gen_check : Check.t G.t =
  G.map2 mk (G.list_repeat 3 (G.int_range (-3) 3)) (G.int_range (-8) 8)

let pp_check c = Fmt.str "%a" Check.pp c

let print_query (hyps, goal) =
  Printf.sprintf "hyps=[%s] goal=%s"
    (String.concat "; " (List.map pp_check hyps))
    (pp_check goal)

let arb_query =
  QCheck.make ~print:print_query
    (G.pair (G.list_size (G.int_range 0 4) gen_check) gen_check)

(* --- soundness vs the enumerator -------------------------------------- *)

(* The oracle answers over ALL integers, so a [true] must in particular
   hold on the box; a box counterexample would be a refutation bug. *)
let prop_implies_sound =
  QCheck.Test.make ~name:"oracle: implies sound vs brute force" ~count:500
    arb_query (fun (hyps, goal) ->
      (not (Oracle.implies ~hyps goal)) || box_implies hyps goal)

let prop_unsat_sound =
  QCheck.Test.make ~name:"oracle: unsat sound vs brute force" ~count:500
    (QCheck.make
       ~print:(fun cs -> String.concat "; " (List.map pp_check cs))
       (G.list_size (G.int_range 1 5) gen_check))
    (fun cs -> (not (Oracle.unsat cs)) || box_unsat cs)

(* --- coverage: oracle >= the family rule ------------------------------ *)

(* The universally sound syntactic rule is the within-family constant
   comparison; whatever it proves, the decision procedure must too. *)
let prop_covers_within_family =
  QCheck.Test.make ~name:"oracle: proves every within-family implication"
    ~count:500
    (QCheck.make ~print:print_query
       (G.map3
          (fun coeffs k1 k2 -> ([ mk coeffs k1 ], mk coeffs k2))
          (G.list_repeat 3 (G.int_range (-3) 3))
          (G.int_range (-8) 8) (G.int_range (-8) 8)))
    (fun (hyps, goal) ->
      (not (Check.implies_within_family (List.hd hyps) goal))
      || Oracle.implies ~hyps goal)

(* Rational completeness: any goal that is a nonnegative combination of
   the hypotheses plus nonnegative slack carries a Farkas certificate,
   and Fourier–Motzkin is complete for those. This is exactly the class
   of cross-family implications no syntactic rule sees. *)
let prop_proves_farkas_combinations =
  let gen =
    G.map3
      (fun hyps lambdas slack ->
        let lambdas = List.filteri (fun i _ -> i < List.length hyps) lambdas in
        let lhs =
          List.fold_left2
            (fun acc h l -> Linexpr.add acc (Linexpr.scale l (Check.lhs h)))
            Linexpr.zero hyps lambdas
        in
        let k =
          List.fold_left2 (fun acc h l -> acc + (l * Check.constant h)) 0 hyps lambdas
        in
        (hyps, Check.make lhs (k + slack)))
      (G.list_size (G.int_range 1 3) gen_check)
      (G.list_repeat 3 (G.int_range 0 2))
      (G.int_range 0 5)
  in
  QCheck.Test.make ~name:"oracle: proves nonneg combinations of hyps" ~count:500
    (QCheck.make ~print:print_query gen) (fun (hyps, goal) ->
      Oracle.implies ~hyps goal)

(* --- deterministic cross-family cases --------------------------------- *)

let upper a k = Check.make (Linexpr.of_atom a) k
let le a b = Check.make (Linexpr.sub (Linexpr.of_atom a) (Linexpr.of_atom b)) 0

let test_transitive_chain () =
  (* x <= y, y <= z, z <= 7 |- x <= 7: the preheader-conditional
     reasoning (LLS) that needs two eliminations. *)
  Alcotest.(check bool)
    "x<=y, y<=z, z<=7 |- x<=7" true
    (Oracle.implies ~hyps:[ le x y; le y z; upper z 7 ] (upper x 7));
  Alcotest.(check bool)
    "chain cannot prove x<=6" false
    (Oracle.implies ~hyps:[ le x y; le y z; upper z 7 ] (upper x 6))

let test_gcd_tightening () =
  (* 2x <= 9 |- x <= 4 needs the integer floor; rationally x <= 4.5. *)
  Alcotest.(check bool)
    "2x<=9 |- x<=4" true
    (Oracle.implies ~hyps:[ Check.make (Linexpr.of_atom ~coeff:2 x) 9 ] (upper x 4));
  Alcotest.(check bool)
    "2x<=9 /|- x<=3" false
    (Oracle.implies ~hyps:[ Check.make (Linexpr.of_atom ~coeff:2 x) 9 ] (upper x 3))

let test_scaling () =
  (* x <= 5 |- 2x <= 10: different family, one combination step. *)
  Alcotest.(check bool)
    "x<=5 |- 2x<=10" true
    (Oracle.implies ~hyps:[ upper x 5 ] (Check.make (Linexpr.of_atom ~coeff:2 x) 10))

let test_unsat_detects_empty_interval () =
  (* x <= 3 and -x <= -5 (x >= 5): empty. *)
  Alcotest.(check bool)
    "x<=3, x>=5 unsat" true
    (Oracle.unsat [ upper x 3; Check.make (Linexpr.of_atom ~coeff:(-1) x) (-5) ]);
  Alcotest.(check bool)
    "x<=3, x>=3 sat" false
    (Oracle.unsat [ upper x 3; Check.make (Linexpr.of_atom ~coeff:(-1) x) (-3) ])

(* --- degradation: overflow and fuel are "unknown", not exceptions ----- *)

let test_overflow_is_unknown () =
  (* Eliminating x from [2x + y <= max_int-1] and the negated goal
     [-3x - y <= -1] scales the constant by 3, which overflows; the
     other elimination order projects the system to a satisfiable one.
     Either way the answer is false and no exception may escape. *)
  let h = mk [ 2; 1; 0 ] (max_int - 1) in
  Alcotest.(check bool)
    "overflowing combination is unknown" false
    (Oracle.implies ~hyps:[ h ] (mk [ 3; 1; 0 ] 0));
  (* Negating a min_int-constant goal overflows before elimination. *)
  Alcotest.(check bool)
    "un-negatable goal is unknown" false
    (Oracle.implies ~hyps:[ upper x 0 ] (Check.make (Linexpr.of_atom y) min_int))

(* Wild coefficients and constants: whatever they are, the oracle call
   must return a boolean — Overflow, fuel exhaustion and constraint
   blowup all degrade to "unknown" internally. *)
let prop_huge_inputs_never_raise =
  let gen_wild_int =
    G.oneof
      [
        G.int_range (-3) 3;
        G.oneofl [ max_int; min_int; max_int / 2; min_int / 2; max_int - 1 ];
      ]
  in
  let gen_wild_check =
    G.map2 mk (G.list_repeat 3 gen_wild_int) gen_wild_int
  in
  QCheck.Test.make ~name:"oracle: huge inputs never raise" ~count:300
    (QCheck.make ~print:print_query
       (G.pair (G.list_size (G.int_range 0 4) gen_wild_check) gen_wild_check))
    (fun (hyps, goal) ->
      let (_ : bool) = Oracle.implies ~hyps goal in
      let (_ : bool) = Oracle.unsat (goal :: hyps) in
      true)

(* --- the per-compile cache ----------------------------------------- *)

(* One cache shared across a stream of queries, each asked several
   times and interleaved with the others, answers every one exactly as
   an uncached query does. *)
let prop_cache_transparent =
  let gen =
    G.(
      list_size (int_range 1 5) (pair (list_size (int_range 0 4) gen_check) gen_check)
      >>= fun qs ->
      let n = List.length qs in
      map (fun order -> (qs, order)) (list_size (int_range n (4 * n)) (int_bound (n - 1))))
  in
  let print (qs, order) =
    Printf.sprintf "queries=[%s] order=[%s]"
      (String.concat " | " (List.map print_query qs))
      (String.concat "," (List.map string_of_int order))
  in
  QCheck.Test.make ~name:"oracle: a shared cache changes no answer" ~count:300
    (QCheck.make ~print gen) (fun (qs, order) ->
      let qs = Array.of_list qs in
      let cache = Oracle.Cache.create () in
      List.for_all
        (fun i ->
          let hyps, goal = qs.(i) in
          Oracle.implies ~cache ~hyps goal = Oracle.implies ~hyps goal
          && Oracle.unsat ~cache (goal :: hyps) = Oracle.unsat (goal :: hyps))
        (order @ order))

(* --- hypothesis handles ----------------------------------------------- *)

(* Hypothesis sets built from 2–4 blocks over disjoint atom pairs,
   shuffled together, sometimes with one block made contradictory
   ([e <= k] and [-e <= -k-1-d]) — the case where the answer comes from
   a component the goal never touches. *)
let block_atoms =
  Array.init 8 (fun i -> Atom.make ~key:(100 + i) ~name:(Printf.sprintf "b%d" i))

let over pair coeffs k =
  Check.make (Linexpr.of_terms (List.map2 (fun a c -> (a, c)) pair coeffs)) k

let gen_blocks : (Check.t list * Check.t list * bool) G.t =
  let open G in
  let atoms_of i = [ block_atoms.(2 * i); block_atoms.((2 * i) + 1) ] in
  let coeffs = list_repeat 2 (int_range (-3) 3) in
  int_range 2 4 >>= fun nb ->
  list_repeat nb (list_size (int_range 1 3) (pair coeffs (int_range (-8) 8)))
  >>= fun blocks ->
  let hyps =
    List.concat
      (List.mapi (fun i cs -> List.map (fun (co, k) -> over (atoms_of i) co k) cs) blocks)
  in
  frequency
    [
      (2, return None);
      ( 1,
        map3
          (fun b k d -> Some (b, k, d))
          (int_bound (nb - 1)) (int_range (-8) 8) (int_range 0 3) );
    ]
  >>= fun bad ->
  (match bad with
  | None -> return (hyps, false)
  | Some (b, k, d) ->
      map
        (fun co ->
          let co = if List.for_all (( = ) 0) co then [ 1; 0 ] else co in
          let e = over (atoms_of b) co k in
          (over (atoms_of b) (List.map (fun c -> -c) co) (-k - 1 - d) :: e :: hyps, true))
        coeffs)
  >>= fun (hyps, contradictory) ->
  shuffle_l hyps >>= fun hyps ->
  (* goals over any two atoms: inside one block, across two, or over
     atoms no hypothesis mentions *)
  list_size (int_range 1 6)
    (map3
       (fun (i, j) co k -> over [ block_atoms.(i); block_atoms.(j) ] co k)
       (pair (int_bound 7) (int_bound 7))
       coeffs (int_range (-8) 8))
  >>= fun goals -> return (hyps, goals, contradictory)

let print_blocks (hyps, goals, contradictory) =
  Printf.sprintf "hyps=[%s] goals=[%s] contradictory=%b"
    (String.concat "; " (List.map pp_check hyps))
    (String.concat "; " (List.map pp_check goals))
    contradictory

(* One handle per set, over a shared cache, asked every goal twice in
   two orders, answers each exactly as an uncached [Oracle.implies] on
   the same hypotheses — and a contradictory set implies every goal. *)
let prop_handle_matches_implies =
  QCheck.Test.make ~name:"oracle: a handle answers as uncached implies" ~count:500
    (QCheck.make ~print:print_blocks gen_blocks) (fun (hyps, goals, contradictory) ->
      let h = Oracle.Hyps.make ~cache:(Oracle.Cache.create ()) hyps in
      List.for_all
        (fun g ->
          let v = Oracle.Hyps.implies h g in
          v = Oracle.implies ~hyps g && ((not contradictory) || v))
        (goals @ List.rev goals))

module Guard = Nascent_support.Guard

(* A query cut off mid-flight — by an ambient fuel budget at every tick
   it takes, or by a deadline — records nothing: the next query on the
   same handle and cache gets the real answer. The chain goals are
   decided by elimination over the touched component, the remainder
   goal only by the contradictory component it does not touch. *)
let test_cut_query_leaves_handle_clean () =
  let chain = [ le x y; le y z; upper z 7 ] in
  let bad = [ over [ block_atoms.(0) ] [ 1 ] 3; over [ block_atoms.(0) ] [ -1 ] (-5) ] in
  let cases =
    [
      ("chain", chain, upper x 7, true);
      ("chain", chain, upper x 6, false);
      ("remainder", chain @ bad, upper x 6, true);
    ]
  in
  let cut_fuel = ref 0 and cut_deadline = ref 0 in
  let attempt ~cut install (name, hyps, goal, expected) =
    let cache = Oracle.Cache.create () in
    let h = Oracle.Hyps.make ~cache hyps in
    (match install (fun () -> Oracle.Hyps.implies h goal) with
    | (_ : bool) -> ()
    | exception (Guard.Fuel_exhausted _ | Guard.Deadline_exceeded _) -> incr cut);
    Alcotest.(check bool) (name ^ ": same handle") expected (Oracle.Hyps.implies h goal);
    Alcotest.(check bool)
      (name ^ ": fresh handle, same cache")
      expected
      (Oracle.Hyps.implies (Oracle.Hyps.make ~cache hyps) goal)
  in
  List.iter
    (fun case ->
      for budget = 1 to 40 do
        attempt ~cut:cut_fuel
          (fun q -> Guard.with_fuel (Guard.fuel ~what:"outer" ~budget) q)
          case
      done;
      (* align the deadline throttle, then let the query take the
         128-j-th tick of the stride *)
      for j = 100 to 127 do
        attempt ~cut:cut_deadline
          (fun q ->
            Guard.with_deadline (Guard.deadline ~what:"outer" ~seconds:0.0) (fun () ->
                (try
                   while true do
                     Guard.tick_ambient ()
                   done
                 with Guard.Deadline_exceeded _ -> ());
                for _ = 1 to j do
                  Guard.tick_ambient ()
                done;
                q ()))
          case
      done)
    cases;
  Alcotest.(check bool) "some queries were cut by fuel" true (!cut_fuel > 0);
  Alcotest.(check bool) "some queries were cut by the deadline" true (!cut_deadline > 0)

let test_fuel_budget_positive () =
  Alcotest.(check bool) "fuel budget positive" true (Oracle.fuel_budget > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_implies_sound;
    QCheck_alcotest.to_alcotest prop_unsat_sound;
    QCheck_alcotest.to_alcotest prop_covers_within_family;
    QCheck_alcotest.to_alcotest prop_proves_farkas_combinations;
    tc "oracle: transitive chain" test_transitive_chain;
    tc "oracle: gcd tightening" test_gcd_tightening;
    tc "oracle: cross-family scaling" test_scaling;
    tc "oracle: unsat interval" test_unsat_detects_empty_interval;
    tc "oracle: overflow degrades to unknown" test_overflow_is_unknown;
    QCheck_alcotest.to_alcotest prop_huge_inputs_never_raise;
    QCheck_alcotest.to_alcotest prop_cache_transparent;
    QCheck_alcotest.to_alcotest prop_handle_matches_implies;
    tc "oracle: a cut-off query leaves the handle clean" test_cut_query_leaves_handle_clean;
    tc "oracle: fuel budget positive" test_fuel_budget_positive;
  ]
