(* Canonical range expressions, checks, families, the check implication
   graph (paper Figures 3/4), and frozen universes. *)

open Util
module Atom = Nascent_checks.Atom
module Linexpr = Nascent_checks.Linexpr
module Check = Nascent_checks.Check
module Cig = Nascent_checks.Cig
module Universe = Nascent_checks.Universe
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

(* --- CIG (paper Figures 3/4) ------------------------------------------ *)

let test_cig_within_family () =
  let cig = Cig.create () in
  let c1 = Check.make (Linexpr.of_atom x) 5 in
  let c2 = Check.make (Linexpr.of_atom x) 9 in
  let f1 = Cig.family_of_check cig c1 and f2 = Cig.family_of_check cig c2 in
  Alcotest.(check int) "same family" f1 f2;
  Alcotest.(check bool) "strong" true (Cig.as_strong_as cig ~strong:(f1, 5) ~weak:(f2, 9));
  Alcotest.(check bool) "not strong" false
    (Cig.as_strong_as cig ~strong:(f1, 9) ~weak:(f2, 5))

let test_cig_figure4 () =
  (* paper Figure 4: from Check(n <= 6) => Check(m <= 10) infer an edge
     of weight 4; then Check(n <= 1) is as strong as Check(m <= 7) but
     NOT as strong as Check(m <= 3). *)
  let cig = Cig.create () in
  let n = Linexpr.of_atom (atom 20 "n") and m = Linexpr.of_atom (atom 21 "m") in
  Cig.add_implication cig ~from:(Check.make n 6) ~to_:(Check.make m 10);
  let fn = Cig.family_of_expr cig n and fm = Cig.family_of_expr cig m in
  Alcotest.(check bool) "n<=1 => m<=7" true
    (Cig.as_strong_as cig ~strong:(fn, 1) ~weak:(fm, 7));
  Alcotest.(check bool) "n<=1 /=> m<=3" false
    (Cig.as_strong_as cig ~strong:(fn, 1) ~weak:(fm, 3));
  Alcotest.(check bool) "no reverse edge" false
    (Cig.as_strong_as cig ~strong:(fm, 0) ~weak:(fn, 100))

let test_cig_min_weight_kept () =
  let cig = Cig.create () in
  let n = Linexpr.of_atom (atom 20 "n") and m = Linexpr.of_atom (atom 21 "m") in
  Cig.add_implication cig ~from:(Check.make n 0) ~to_:(Check.make m 8);
  Cig.add_implication cig ~from:(Check.make n 0) ~to_:(Check.make m 3);
  let fn = Cig.family_of_expr cig n and fm = Cig.family_of_expr cig m in
  (* the tighter weight-3 edge must win *)
  Alcotest.(check (option int)) "weight" (Some 3) (Cig.path_weight cig fn fm)

let test_cig_transitive_path () =
  let cig = Cig.create () in
  let a = Linexpr.of_atom (atom 30 "a")
  and b = Linexpr.of_atom (atom 31 "b")
  and c = Linexpr.of_atom (atom 32 "c") in
  Cig.add_implication cig ~from:(Check.make a 0) ~to_:(Check.make b 2);
  Cig.add_implication cig ~from:(Check.make b 0) ~to_:(Check.make c 5);
  let fa = Cig.family_of_expr cig a and fc = Cig.family_of_expr cig c in
  Alcotest.(check (option int)) "path weight 7" (Some 7) (Cig.path_weight cig fa fc);
  Alcotest.(check bool) "a<=1 => c<=8" true
    (Cig.as_strong_as cig ~strong:(fa, 1) ~weak:(fc, 8));
  Alcotest.(check bool) "a<=2 /=> c<=8" false
    (Cig.as_strong_as cig ~strong:(fa, 2) ~weak:(fc, 8))

let prop_cig_strength_preorder =
  (* as-strong-as is reflexive and transitive over a random CIG *)
  (* nonnegative weights: negative cycles would make shortest paths
     ill-defined (the implementation saturates conservatively, but the
     triangle inequality the property relies on needs convergence) *)
  let edge_gen = QCheck.(triple (int_bound 4) (int_bound 4) (int_bound 5)) in
  QCheck.Test.make ~name:"cig strength is a preorder" (QCheck.small_list edge_gen)
    (fun edges ->
      let cig = Cig.create () in
      let fam i = Linexpr.of_atom (atom (50 + i) (Printf.sprintf "f%d" i)) in
      let fams = Array.init 5 (fun i -> Cig.family_of_expr cig (fam i)) in
      List.iter
        (fun (f, g, w) ->
          if f <> g then
            Cig.add_implication cig
              ~from:(Check.make (fam f) 0)
              ~to_:(Check.make (fam g) w))
        edges;
      let checks = List.concat_map (fun f -> [ (fams.(f), 0); (fams.(f), 3) ]) [ 0; 1; 2; 3; 4 ] in
      let strong a b = Cig.as_strong_as cig ~strong:a ~weak:b in
      List.for_all (fun c -> strong c c) checks
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 List.for_all
                   (fun c -> (not (strong a b && strong b c)) || strong a c)
                   checks)
               checks)
           checks)

(* --- Universe ---------------------------------------------------------- *)

let mk_universe mode checks =
  let cig = Cig.create () in
  Universe.build ~cig ~mode checks

let test_universe_dedup () =
  let c = Check.make (Linexpr.of_atom x) 5 in
  let uni = mk_universe Universe.All_implications [ c; c; c ] in
  Alcotest.(check int) "one check" 1 (Universe.size uni)

let test_universe_avail_gen_modes () =
  let c5 = Check.make (Linexpr.of_atom x) 5 in
  let c9 = Check.make (Linexpr.of_atom x) 9 in
  let test mode expected =
    let uni = mk_universe mode [ c5; c9 ] in
    let i5 = Universe.index_of_exn uni c5 in
    let i9 = Universe.index_of_exn uni c9 in
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
  let cig = Cig.create () in
  let n = Linexpr.of_atom (atom 20 "n") and m = Linexpr.of_atom (atom 21 "m") in
  let cn = Check.make n 0 and cm = Check.make m 10 in
  Cig.add_implication cig ~from:cn ~to_:cm;
  let uni = Universe.build ~cig ~mode:Universe.All_implications [ cn; cm ] in
  let i_n = Universe.index_of_exn uni cn and i_m = Universe.index_of_exn uni cm in
  (* availability crosses families via the CIG edge ... *)
  Alcotest.(check bool) "avail crosses" true (Bitset.mem (Universe.avail_gen uni i_n) i_m);
  (* ... anticipatability does not (the paper's stronger condition) *)
  Alcotest.(check bool) "ant does not" false (Bitset.mem (Universe.ant_gen uni i_n) i_m)

let test_universe_kills () =
  let c = Check.make (Linexpr.of_terms [ (x, 1); (y, -2) ]) 5 in
  let uni = mk_universe Universe.All_implications [ c ] in
  let i = Universe.index_of_exn uni c in
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
    tc "cig: within family" test_cig_within_family;
    tc "cig: figure 4" test_cig_figure4;
    tc "cig: min weight kept" test_cig_min_weight_kept;
    tc "cig: transitive path" test_cig_transitive_path;
    QCheck_alcotest.to_alcotest prop_cig_strength_preorder;
    tc "universe: dedup" test_universe_dedup;
    tc "universe: avail gen modes" test_universe_avail_gen_modes;
    tc "universe: ant gen same-family only" test_universe_ant_gen_same_family_only;
    tc "universe: kills" test_universe_kills;
  ]
