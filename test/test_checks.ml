(* Canonical range expressions, checks, families, and the check
   table. *)

open Util
module Atom = Nascent_checks.Atom
module Linexpr = Nascent_checks.Linexpr
module Check = Nascent_checks.Check
module Universe = Nascent_checks.Universe
module Intern = Nascent_checks.Intern
module Work = Nascent_checks.Work
module Oracle = Nascent_checks.Oracle
module Bitset = Nascent_support.Bitset

let atom k name = Atom.make ~key:k ~name
let x = atom 0 "x"
let y = atom 1 "y"
let z = atom 2 "z"

(* --- Linexpr ---------------------------------------------------------- *)

let test_linexpr_add_cancel () =
  let a = Linexpr.of_terms [ (x, 2); (y, 3) ] in
  let b = Linexpr.of_terms [ (x, -2); (y, 1) ] in
  let s = Linexpr.add a b in
  Alcotest.(check int) "x gone" 0 (Linexpr.coeff_of s x);
  Alcotest.(check int) "y = 4" 4 (Linexpr.coeff_of s y);
  Alcotest.(check bool) "sub self is zero" true (Linexpr.is_zero (Linexpr.sub a a))

let test_linexpr_canonical_order () =
  (* construction order must not matter *)
  let a = Linexpr.of_terms [ (y, 1); (x, 2); (z, -1) ] in
  let b = Linexpr.of_terms [ (z, -1); (x, 2); (y, 1) ] in
  Alcotest.(check bool) "equal" true (Linexpr.equal a b);
  Alcotest.(check int) "compare" 0 (Linexpr.compare a b)

let test_linexpr_scale_subst () =
  let a = Linexpr.of_terms [ (x, 2); (y, 1) ] in
  let s = Linexpr.scale 3 a in
  Alcotest.(check int) "6x" 6 (Linexpr.coeff_of s x);
  (* substitute x := y - (represented as linexpr [y]) *)
  let t = Linexpr.subst a x (Linexpr.of_atom y) in
  Alcotest.(check int) "x gone" 0 (Linexpr.coeff_of t x);
  Alcotest.(check int) "y = 1 + 2" 3 (Linexpr.coeff_of t y)

(* Atoms are identified by key alone: the same key under another
   display name is the same atom to coefficient lookup and
   substitution. *)
let test_linexpr_coeff_by_key () =
  let x' = atom 0 "x_alias" in
  let a = Linexpr.of_terms [ (x, 2); (y, 1) ] in
  Alcotest.(check int) "coeff of alias" 2 (Linexpr.coeff_of a x');
  let t = Linexpr.subst a x' (Linexpr.of_atom y) in
  Alcotest.(check int) "alias substituted" 0 (Linexpr.coeff_of t x);
  Alcotest.(check int) "y = 1 + 2" 3 (Linexpr.coeff_of t y)

let test_linexpr_gcd () =
  Alcotest.(check int) "gcd" 6 (Linexpr.coeff_gcd (Linexpr.of_terms [ (x, 6); (y, -12) ]));
  Alcotest.(check int) "gcd zero" 0 (Linexpr.coeff_gcd Linexpr.zero)

let prop_add_commutative =
  let gen =
    QCheck.(small_list (pair (int_bound 5) (int_range (-4) 4)))
  in
  QCheck.Test.make ~name:"linexpr addition commutes" (QCheck.pair gen gen)
    (fun (ts1, ts2) ->
      let mk ts = Linexpr.of_terms (List.map (fun (k, c) -> (atom k (Printf.sprintf "v%d" k), c)) ts) in
      let a = mk ts1 and b = mk ts2 in
      Linexpr.equal (Linexpr.add a b) (Linexpr.add b a))

let prop_of_terms_idempotent =
  let gen = QCheck.(small_list (pair (int_bound 5) (int_range (-4) 4))) in
  QCheck.Test.make ~name:"linexpr of_terms/terms roundtrip canonical" gen (fun ts ->
      let mk ts = Linexpr.of_terms (List.map (fun (k, c) -> (atom k (Printf.sprintf "v%d" k), c)) ts) in
      let a = mk ts in
      Linexpr.equal a (Linexpr.of_terms (Linexpr.terms a)))

(* --- Check ------------------------------------------------------------ *)

let test_check_canonical_fig1 () =
  (* paper Figure 1: 2*N <= 10 and 2*N-1 <= 10 share a family with
     constants 10 and 11 *)
  let n = atom 7 "n" in
  let c2 = Check.upper ~sub:(Linexpr.of_atom ~coeff:2 n, 0) ~bound:(Linexpr.zero, 10) in
  let c4 = Check.upper ~sub:(Linexpr.of_atom ~coeff:2 n, -1) ~bound:(Linexpr.zero, 10) in
  Alcotest.(check bool) "same family" true (Check.same_family c2 c4);
  Alcotest.(check int) "c2 const" 10 (Check.constant c2);
  Alcotest.(check int) "c4 const" 11 (Check.constant c4);
  Alcotest.(check bool) "c2 => c4" true (Check.implies_within_family c2 c4);
  Alcotest.(check bool) "c4 /=> c2" false (Check.implies_within_family c4 c2)

let test_check_lower_negation () =
  (* lower bound check lo <= sub becomes -sub <= -lo *)
  let i = atom 8 "i" in
  let c = Check.lower ~sub:(Linexpr.of_atom i, 1) ~bound:(Linexpr.zero, 4) in
  (* i+1 >= 4  <=>  -i <= -3 *)
  Alcotest.(check int) "const" (-3) (Check.constant c);
  Alcotest.(check int) "coeff" (-1) (Linexpr.coeff_of (Check.lhs c) i)

let test_check_symbolic_bound () =
  (* i + 1 <= 4*n  becomes  i - 4n <= -1 (the paper's section 2.2 example) *)
  let i = atom 8 "i" and n = atom 7 "n" in
  let c =
    Check.upper ~sub:(Linexpr.of_atom i, 1) ~bound:(Linexpr.of_atom ~coeff:4 n, 0)
  in
  Alcotest.(check int) "const" (-1) (Check.constant c);
  Alcotest.(check int) "i coeff" 1 (Linexpr.coeff_of (Check.lhs c) i);
  Alcotest.(check int) "n coeff" (-4) (Linexpr.coeff_of (Check.lhs c) n)

let test_check_compile_time () =
  let t = Check.make Linexpr.zero 3 in
  let f = Check.make Linexpr.zero (-1) in
  let sym = Check.make (Linexpr.of_atom x) 3 in
  Alcotest.(check (option bool)) "true" (Some true) (Check.compile_time_value t);
  Alcotest.(check (option bool)) "false" (Some false) (Check.compile_time_value f);
  Alcotest.(check (option bool)) "symbolic" None (Check.compile_time_value sym)

let test_check_gcd_normalize () =
  let c = Check.make (Linexpr.of_atom ~coeff:2 x) 11 in
  let g = Check.gcd_normalize c in
  Alcotest.(check int) "coeff 1" 1 (Linexpr.coeff_of (Check.lhs g) x);
  Alcotest.(check int) "floor(11/2)" 5 (Check.constant g);
  (* negative constants floor too: 2x <= -3 <=> x <= -2 *)
  let g2 = Check.gcd_normalize (Check.make (Linexpr.of_atom ~coeff:2 x) (-3)) in
  Alcotest.(check int) "floor(-3/2)" (-2) (Check.constant g2)

let prop_gcd_preserves_integer_solutions =
  QCheck.Test.make ~name:"gcd normalization preserves satisfaction"
    QCheck.(triple (int_range 1 6) (int_range (-30) 30) (int_range (-20) 20))
    (fun (coef, k, v) ->
      let c = Check.make (Linexpr.of_atom ~coeff:coef x) k in
      let g = Check.gcd_normalize c in
      let sat (chk : Check.t) =
        Linexpr.coeff_of (Check.lhs chk) x * v <= Check.constant chk
      in
      sat c = sat g)

(* --- Universe ---------------------------------------------------------- *)

let mk_universe ?(oracle = false) mode checks =
  let uni = Universe.create ~mode ~oracle (Intern.create ()) in
  ignore (Universe.sync uni checks);
  uni

let index_in uni c = Intern.id (Universe.pool uni) c

let test_universe_dedup () =
  let c = Check.make (Linexpr.of_atom x) 5 in
  let uni = mk_universe Universe.All_implications [ c; c; c ] in
  Alcotest.(check int) "one check" 1 (Intern.size (Universe.pool uni))

let test_universe_avail_gen_modes () =
  let c5 = Check.make (Linexpr.of_atom x) 5 in
  let c9 = Check.make (Linexpr.of_atom x) 9 in
  let test mode expected =
    let uni = mk_universe mode [ c5; c9 ] in
    let i5 = index_in uni c5 in
    let i9 = index_in uni c9 in
    let gen = Universe.avail_gen uni i5 in
    Alcotest.(check bool)
      (Fmt.str "strong gens weak under %s" (Universe.mode_name mode))
      expected (Bitset.mem gen i9);
    (* the weak check never generates the strong one *)
    Alcotest.(check bool) "weak does not gen strong" false
      (Bitset.mem (Universe.avail_gen uni i9) i5)
  in
  test Universe.All_implications true;
  test Universe.No_implications false;
  test Universe.Cross_family_only false

let test_universe_ant_gen_same_family_only () =
  (* [2*i <= 10] implies [i <= 5] across families, proven by the
     oracle *)
  let i = atom 20 "i" in
  let c2 = Check.make (Linexpr.of_atom ~coeff:2 i) 10 and c1 = Check.make (Linexpr.of_atom i) 5 in
  let uni = mk_universe ~oracle:true Universe.All_implications [ c2; c1 ] in
  let i2 = index_in uni c2 and i1 = index_in uni c1 in
  (* availability crosses families via the oracle ... *)
  Alcotest.(check bool) "avail crosses" true (Bitset.mem (Universe.avail_gen uni i2) i1);
  (* ... anticipatability does not (the paper's stronger condition) *)
  Alcotest.(check bool) "ant does not" false (Bitset.mem (Universe.ant_gen uni i2) i1)

(* Each cross-family pair over the same atoms reaches the oracle once
   per table: syncing checks the table holds asks nothing, and a new
   check asks only about its own pairs. Every [Oracle.implies] call
   decides one goal. *)
let test_universe_oracle_once_per_pair () =
  let i = atom 20 "i" in
  let c k coeff = Check.make (Linexpr.of_atom ~coeff i) k in
  let c2 = c 10 2 and c1 = c 5 1 and c3 = c 14 3 and cneg = c 0 (-1) in
  let uni = Universe.create ~mode:Universe.All_implications ~oracle:true (Intern.create ()) in
  let goals batch =
    let w0 = Work.now () in
    ignore (Universe.sync uni batch);
    (Work.since w0).Work.goals
  in
  Alcotest.(check int) "first two: both orders" 2 (goals [ c2; c1 ]);
  Alcotest.(check int) "again: none" 0 (goals [ c1; c2 ]);
  Alcotest.(check int) "a third: its pairs with two" 4 (goals [ c1; c3 ]);
  Alcotest.(check int) "a fourth: its pairs with three" 6 (goals [ c2; c1; c3; cneg ]);
  Alcotest.(check int) "all again: none" 0 (goals [ c2; c1; c3; cneg ])

(* Random checks over 2-3 atoms, each with a nonzero range expression
   (a constant check would be a contradiction or a tautology, which
   relates to every check through the oracle), in 2-3 batches synced
   one after another. Coefficients in [-2, 2] make shared families and
   scaled copies ([2*x <= 10], [x <= 5]) common. *)
let arb_batches =
  let open QCheck.Gen in
  let atoms = [| x; y; z |] in
  let check nat =
    map2
      (fun cs k ->
        let cs = if List.for_all (( = ) 0) cs then 1 :: List.tl cs else cs in
        Check.make (Linexpr.of_terms (List.mapi (fun i c -> (atoms.(i), c)) cs)) k)
      (list_repeat nat (int_range (-2) 2))
      (int_range (-4) 4)
  in
  let gen =
    int_range 2 3 >>= fun nat ->
    list_size (int_range 2 3) (list_size (int_range 1 4) (check nat))
  in
  QCheck.make ~print:(Fmt.str "%a" Fmt.(Dump.list (Dump.list Check.pp))) gen

(* Every mode's rows, after every batch, against a reference spelled
   pair by pair: within a family, the smaller constant; across
   families, only what the oracle proves, and only for availability.
   [covered_by] is [avail_gen]'s transpose, the kill sets are the
   checks over each atom, and a sync returns its batch's ids. *)
let prop_universe_relation =
  QCheck.Test.make ~count:300 ~name:"universe gen sets match a brute-force reference"
    arb_batches (fun batches ->
      let modes = Universe.[ No_implications; Cross_family_only; All_implications ] in
      List.for_all
        (fun mode ->
          List.for_all
            (fun oracle ->
              let uni = Universe.create ~mode ~oracle (Intern.create ()) in
              let pool = Universe.pool uni in
              List.iter
                (fun batch ->
                  let present = Universe.sync uni batch in
                  let n = Intern.size pool in
                  let ids = List.sort_uniq Int.compare (List.map (Intern.id pool) batch) in
                  if Bitset.elements present <> ids then
                    QCheck.Test.fail_reportf "sync returned %a" Bitset.pp present;
                  for i = 0 to n - 1 do
                    let ci = Intern.check pool i in
                    List.iter
                      (fun a ->
                        if Bitset.mem (Universe.killed_by_key uni (Atom.key a)) i
                           <> Check.mentions_key ci (Atom.key a)
                        then QCheck.Test.fail_reportf "kill of %a by %a" Check.pp ci Atom.pp a)
                      [ x; y; z ];
                    for j = 0 to n - 1 do
                      let cj = Intern.check pool j in
                      let within = Check.implies_within_family ci cj in
                      let cross =
                        oracle
                        && (not (Check.same_family ci cj))
                        && Oracle.implies ~hyps:[ ci ] cj
                      in
                      let avail, ant =
                        match mode with
                        | Universe.No_implications -> (i = j, i = j)
                        | Universe.Cross_family_only -> (i = j || cross, i = j)
                        | Universe.All_implications -> (within || cross, within)
                      in
                      let got gen = Bitset.mem (gen uni i) j in
                      if
                        got Universe.avail_gen <> avail
                        || got Universe.ant_gen <> ant
                        || Bitset.mem (Universe.covered_by uni j) i <> avail
                      then
                        QCheck.Test.fail_reportf
                          "%s%s: %a => %a: avail %b (want %b), ant %b (want %b)"
                          (Universe.mode_name mode)
                          (if oracle then "+oracle" else "")
                          Check.pp ci Check.pp cj (got Universe.avail_gen) avail
                          (got Universe.ant_gen) ant
                    done
                  done)
                batches;
              true)
            [ false; true ])
        modes)

let test_universe_kills () =
  let c = Check.make (Linexpr.of_terms [ (x, 1); (y, -2) ]) 5 in
  let uni = mk_universe Universe.All_implications [ c ] in
  let i = index_in uni c in
  Alcotest.(check bool) "killed by x" true (Bitset.mem (Universe.killed_by_key uni (Atom.key x)) i);
  Alcotest.(check bool) "killed by y" true (Bitset.mem (Universe.killed_by_key uni (Atom.key y)) i);
  Alcotest.(check bool) "not killed by z" true
    (Bitset.is_empty (Universe.killed_by_key uni (Atom.key z)))

let suite =
  [
    tc "linexpr: add/cancel" test_linexpr_add_cancel;
    tc "linexpr: canonical order" test_linexpr_canonical_order;
    tc "linexpr: scale/subst" test_linexpr_scale_subst;
    tc "linexpr: coefficient by key" test_linexpr_coeff_by_key;
    tc "linexpr: gcd" test_linexpr_gcd;
    QCheck_alcotest.to_alcotest prop_add_commutative;
    QCheck_alcotest.to_alcotest prop_of_terms_idempotent;
    tc "check: canonical fig1" test_check_canonical_fig1;
    tc "check: lower negation" test_check_lower_negation;
    tc "check: symbolic bound" test_check_symbolic_bound;
    tc "check: compile time" test_check_compile_time;
    tc "check: gcd normalize" test_check_gcd_normalize;
    QCheck_alcotest.to_alcotest prop_gcd_preserves_integer_solutions;
    tc "universe: dedup" test_universe_dedup;
    tc "universe: avail gen modes" test_universe_avail_gen_modes;
    tc "universe: ant gen same-family only" test_universe_ant_gen_same_family_only;
    tc "universe: kills" test_universe_kills;
    tc "universe: one oracle question per pair" test_universe_oracle_once_per_pair;
    QCheck_alcotest.to_alcotest prop_universe_relation;
  ]
