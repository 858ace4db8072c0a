(* Scheme-level tests of the range check optimizer, including the
   paper's Figure 1 / Figure 6 transformations. *)

open Util
module Core = Nascent_core
module Config = Core.Config
module Universe = Nascent_checks.Universe

let optimize ?(scheme = Config.LLS) ?(impl = Universe.All_implications)
    ?(kind = Config.PRX) src =
  let ir = ir_of_source src in
  let opt, stats = Core.Optimizer.optimize ~config:(Config.make ~scheme ~kind ~impl ()) ir in
  (ir, opt, stats)

let run = Nascent_interp.Run.run

(* naive and optimized runs must agree on output and trap behaviour,
   and the optimized program must never perform more checks. *)
let assert_equivalent ?(allow_equal = true) naive_ir opt_ir =
  let o1 = run naive_ir and o2 = run opt_ir in
  Alcotest.(check bool) "trap equivalence" (o1.trap <> None) (o2.trap <> None);
  Alcotest.(check bool) "error equivalence" (o1.error <> None) (o2.error <> None);
  if o1.trap = None && o1.error = None then
    Alcotest.(check bool)
      "same output" true
      (List.length o1.printed = List.length o2.printed
      && List.for_all2 Nascent_interp.Value.equal o1.printed o2.printed);
  if allow_equal then
    Alcotest.(check bool)
      (Fmt.str "fewer-or-equal checks (%d -> %d)" o1.checks o2.checks)
      true (o2.checks <= o1.checks);
  (o1, o2)

(* The paper's Figure 1 program: A declared 5..10, subscripts 2*N and
   2*N-1, N = 3 so everything is in range. *)
let figure1 =
  "program fig1\n\
   integer a(5:10), n\n\
   n = 3\n\
   a(2*n) = 0\n\
   a(2*n - 1) = 1\n\
   print n\n\
   end"

let test_fig1_naive_has_4_checks () =
  let ir = ir_of_source figure1 in
  let o = run ir in
  check_no_trap o;
  Alcotest.(check int) "4 checks" 4 o.checks

let test_fig1_ni_eliminates_one () =
  (* Figure 1(b): C2 (2n <= 10) implies C4 (2n-1 <= 10): three checks
     remain. *)
  let ir, opt, _ = optimize ~scheme:Config.NI figure1 in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check int) "3 checks" 3 o2.checks

let test_fig1_cs_eliminates_two () =
  (* Figure 1(c): strengthening C1 to C3 makes C3 redundant: two checks
     remain. *)
  let ir, opt, stats = optimize ~scheme:Config.CS figure1 in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check bool) "strengthened something" true (stats.Core.Optimizer.strengthened > 0);
  Alcotest.(check int) "2 checks" 2 o2.checks

let test_fig1_no_implications_keeps_4 () =
  (* NI': without implications only exact duplicates are redundant. *)
  let ir, opt, _ = optimize ~scheme:Config.NI ~impl:Universe.No_implications figure1 in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check int) "4 checks" 4 o2.checks

(* Figure 6: an invariant check and a linear check in a loop; both
   hoistable by preheader insertion. *)
let figure6 =
  "program fig6\n\
   integer a(1:10), j, k, n\n\
   n = 4\n\
   k = 2\n\
   do j = 1, 2 * n\n\
   a(k) = a(k) + 1\n\
   a(j) = a(j) + 1\n\
   enddo\n\
   print n\n\
   end"

let test_fig6_naive_checks () =
  let o = run (ir_of_source figure6) in
  check_no_trap o;
  (* 8 iterations x 2 accesses x 2 checks x 2 (load+store of same ref) *)
  Alcotest.(check int) "naive checks" (8 * 2 * 2 * 2) o.checks

let test_fig6_lls_hoists_everything () =
  let ir, opt, stats = optimize ~scheme:Config.LLS figure6 in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check bool) "hoisted linear" true (stats.Core.Optimizer.hoisted_linear > 0);
  Alcotest.(check bool) "hoisted invariant" true (stats.Core.Optimizer.hoisted_invariant > 0);
  (* All loop checks collapse to a handful of preheader checks. *)
  Alcotest.(check bool) (Fmt.str "few checks (%d)" o2.checks) true (o2.checks <= 8)

let test_fig6_li_hoists_only_invariant () =
  let ir, opt, stats = optimize ~scheme:Config.LI figure6 in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check bool) "hoisted invariant" true (stats.Core.Optimizer.hoisted_invariant > 0);
  Alcotest.(check int) "no linear hoists" 0 stats.Core.Optimizer.hoisted_linear;
  (* The linear checks on j remain in the loop. *)
  Alcotest.(check bool) (Fmt.str "some checks remain (%d)" o2.checks) true (o2.checks > 8)

let test_fig6_zero_trip_guard () =
  (* n = 0 gives an empty loop; the conditional checks must not fire. *)
  let src =
    "program fig6z\n\
     integer a(1:10), j, k, n\n\
     n = 0\n\
     k = 99\n\
     do j = 1, 2 * n\n\
     a(k) = 0\n\
     enddo\n\
     print 1\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.LLS src in
  let o1, o2 = assert_equivalent ir opt in
  Alcotest.(check (option string)) "naive no trap" None o1.trap;
  Alcotest.(check (option string)) "optimized no trap" None o2.trap

let test_lls_trap_preserved () =
  (* The loop walks past the array bound: both versions must trap. *)
  let src =
    "program over\n\
     integer a(1:10), j\n\
     do j = 1, 11\n\
     a(j) = 0\n\
     enddo\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.LLS src in
  let o1, o2 = assert_equivalent ir opt in
  trap_expected o1;
  trap_expected o2

let test_lls_downward_loop () =
  let src =
    "program down\n\
     integer a(1:10), j, s\n\
     s = 0\n\
     do j = 10, 1, -1\n\
     s = s + a(j)\n\
     enddo\n\
     print s\n\
     end"
  in
  let ir, opt, stats = optimize ~scheme:Config.LLS src in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check bool) "hoisted" true (stats.Core.Optimizer.hoisted_linear > 0);
  Alcotest.(check bool) (Fmt.str "few checks (%d)" o2.checks) true (o2.checks <= 4)

let test_lls_step2_constant_bounds () =
  let src =
    "program st2\n\
     integer a(1:10), j, s\n\
     s = 0\n\
     do j = 1, 9, 2\n\
     s = s + a(j)\n\
     enddo\n\
     print s\n\
     end"
  in
  let ir, opt, stats = optimize ~scheme:Config.LLS src in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check bool) "hoisted" true (stats.Core.Optimizer.hoisted_linear > 0);
  Alcotest.(check bool) (Fmt.str "few checks (%d)" o2.checks) true (o2.checks <= 4)

let test_lls_step2_exact_extreme () =
  (* do j = 1, 10, 3 visits 1,4,7,10; a(j+1) touches 11 > 10: trap.
     With last-value substitution the hoisted check must still trap —
     and for do j = 1, 9, 3 (last 7) it must NOT trap on a(1:8). *)
  let trap_src =
    "program s3a\ninteger a(1:10), j\ndo j = 1, 10, 3\na(j + 1) = 0\nenddo\nend"
  in
  let ok_src =
    "program s3b\ninteger a(1:8), j\ndo j = 1, 9, 3\na(j + 1) = 0\nenddo\nprint 1\nend"
  in
  let ir1, opt1, _ = optimize ~scheme:Config.LLS trap_src in
  ignore (assert_equivalent ir1 opt1);
  let ir2, opt2, _ = optimize ~scheme:Config.LLS ok_src in
  let o1, o2 = assert_equivalent ir2 opt2 in
  Alcotest.(check (option string)) "no trap naive" None o1.trap;
  Alcotest.(check (option string)) "no trap opt" None o2.trap

let test_lls_symbolic_bounds () =
  let src =
    "program sym\n\
     integer a(1:100), j, n, s\n\
     n = 50\n\
     s = 0\n\
     do j = 1, n\n\
     s = s + a(j)\n\
     enddo\n\
     print s\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.LLS src in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check bool) (Fmt.str "few checks (%d)" o2.checks) true (o2.checks <= 4)

let test_lls_nested_hoists_to_outermost () =
  (* The inner access a(i) is invariant in j and linear in i: it should
     end up as O(1) preheader checks of the outer loop. *)
  let src =
    "program nest\n\
     integer a(1:100), i, j, s\n\
     s = 0\n\
     do i = 1, 10\n\
     do j = 1, 10\n\
     s = s + a(i)\n\
     enddo\n\
     enddo\n\
     print s\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.LLS src in
  let o1, o2 = assert_equivalent ir opt in
  Alcotest.(check int) "naive" 200 o1.checks;
  Alcotest.(check bool) (Fmt.str "O(1) checks (%d)" o2.checks) true (o2.checks <= 4)

let test_lls_triangular_nest () =
  (* do i = 1,n; do j = 1,i — the inner limit depends on the outer
     index; the hoisted inner check is linear in i and hoists again. *)
  let src =
    "program tri\n\
     integer a(1:100), i, j, s\n\
     s = 0\n\
     do i = 1, 10\n\
     do j = 1, i\n\
     s = s + a(j)\n\
     enddo\n\
     enddo\n\
     print s\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.LLS src in
  let o1, o2 = assert_equivalent ir opt in
  Alcotest.(check int) "naive" 110 o1.checks;
  Alcotest.(check bool)
    (Fmt.str "hoisted out of inner loop at least (%d)" o2.checks)
    true
    (o2.checks <= 24)

let test_while_li_hoist () =
  (* Invariant check in a while loop: LI hoists it with the loop
     condition as guard. *)
  let src =
    "program wli\n\
     integer a(1:10), k, n\n\
     k = 3\n\
     n = 0\n\
     while n < 20 do\n\
     a(k) = a(k) + 1\n\
     n = n + 1\n\
     endwhile\n\
     print n\n\
     end"
  in
  let ir, opt, stats = optimize ~scheme:Config.LI src in
  let o1, o2 = assert_equivalent ir opt in
  Alcotest.(check bool) "hoisted" true (stats.Core.Optimizer.hoisted_invariant > 0);
  Alcotest.(check int) "naive" 80 o1.checks;
  Alcotest.(check bool) (Fmt.str "few checks (%d)" o2.checks) true (o2.checks <= 4)

let test_while_guard_false_never_checks () =
  let src =
    "program wgf\n\
     integer a(1:10), k, n\n\
     k = 99\n\
     n = 100\n\
     while n < 20 do\n\
     a(k) = 0\n\
     n = n + 1\n\
     endwhile\n\
     print 1\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.LI src in
  let o1, o2 = assert_equivalent ir opt in
  Alcotest.(check (option string)) "naive no trap" None o1.trap;
  Alcotest.(check (option string)) "optimized no trap" None o2.trap

let test_se_eliminates_across_branches () =
  (* The same access appears on both branches; SE moves the check above
     the branch, halving the per-path count downstream. *)
  let src =
    "program br\n\
     integer a(1:10), n, i\n\
     n = 4\n\
     do i = 1, 5\n\
     if i > 2 then\n\
     a(n) = 1\n\
     else\n\
     a(n) = 2\n\
     endif\n\
     enddo\n\
     print a(4)\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.SE src in
  ignore (assert_equivalent ir opt)

let test_ni_straightline_duplicates () =
  let src =
    "program dup\ninteger a(1:10), n\nn = 5\na(n) = 1\na(n) = 2\nprint n\nend"
  in
  let ir, opt, _ = optimize ~scheme:Config.NI src in
  let o1, o2 = assert_equivalent ir opt in
  Alcotest.(check int) "naive 4" 4 o1.checks;
  Alcotest.(check int) "optimized 2" 2 o2.checks

let test_ni_kill_blocks_elimination () =
  (* n is redefined between the two accesses: the second pair of checks
     must survive. *)
  let src =
    "program kil\n\
     integer a(1:10), n\n\
     n = 5\n\
     a(n) = 1\n\
     n = 6\n\
     a(n) = 2\n\
     print n\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.NI src in
  let o1, o2 = assert_equivalent ir opt in
  Alcotest.(check int) "naive 4" 4 o1.checks;
  Alcotest.(check int) "optimized 4" 4 o2.checks

let test_compile_time_true_checks_removed () =
  let src = "program ctt\ninteger a(1:10)\na(5) = 1\nprint a(5)\nend" in
  let ir, opt, stats = optimize ~scheme:Config.NI src in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check int) "no runtime checks" 0 o2.checks;
  Alcotest.(check bool) "ct-deleted" true (stats.Core.Optimizer.compile_time_deleted > 0)

let test_compile_time_false_becomes_trap () =
  let src = "program ctf\ninteger a(1:10)\na(11) = 1\nend" in
  let ir, opt, stats = optimize ~scheme:Config.NI src in
  Alcotest.(check bool) "trap inserted" true (stats.Core.Optimizer.compile_time_traps > 0);
  let o1 = run ir and o2 = run opt in
  trap_expected o1;
  trap_expected o2

let test_all_schemes_sound_on_mixed_program () =
  let src =
    "program mix\n\
     integer a(1:50), b(0:9, 0:9), i, j, k, n, s\n\
     n = 10\n\
     k = 7\n\
     s = 0\n\
     do i = 1, n\n\
     a(i) = i\n\
     a(k) = a(k) + 1\n\
     if i > 5 then\n\
     a(i + 10) = 2\n\
     endif\n\
     do j = 1, 5\n\
     b(i - 1, j) = i + j\n\
     enddo\n\
     enddo\n\
     while k > 0 do\n\
     s = s + a(k)\n\
     k = k - 1\n\
     endwhile\n\
     print s\n\
     end"
  in
  let ir = ir_of_source src in
  List.iter
    (fun scheme ->
      List.iter
        (fun impl ->
          let opt, _ =
            Core.Optimizer.optimize ~config:(Config.make ~scheme ~impl ()) ir
          in
          let o1 = run ir and o2 = run opt in
          if not ((o1.trap <> None) = (o2.trap <> None)) then
            Alcotest.failf "trap mismatch under %s"
              (Config.scheme_name scheme);
          if o1.trap = None then begin
            if
              not
                (List.length o1.printed = List.length o2.printed
                && List.for_all2 Nascent_interp.Value.equal o1.printed o2.printed)
            then Alcotest.failf "output mismatch under %s" (Config.scheme_name scheme);
            if o2.checks > o1.checks then
              Alcotest.failf "%s increased dynamic checks %d -> %d"
                (Config.scheme_name scheme) o1.checks o2.checks
          end)
        [ Universe.All_implications; Universe.Cross_family_only; Universe.No_implications ])
    Config.all_schemes

let test_lls_beats_ni () =
  let src =
    "program cmp\n\
     integer a(1:100), i, s\n\
     s = 0\n\
     do i = 1, 100\n\
     s = s + a(i)\n\
     enddo\n\
     print s\n\
     end"
  in
  let ir = ir_of_source src in
  let pct scheme =
    let opt, _ = Core.Optimizer.optimize ~config:(Config.make ~scheme ()) ir in
    let o0 = run ir and o = run opt in
    100.0 *. float_of_int (o0.checks - o.checks) /. float_of_int o0.checks
  in
  let ni = pct Config.NI and lls = pct Config.LLS in
  Alcotest.(check bool) (Fmt.str "LLS (%.1f%%) > NI (%.1f%%)" lls ni) true (lls > ni);
  Alcotest.(check bool) (Fmt.str "LLS ~ 98%% (%.1f%%)" lls) true (lls >= 95.0)

let test_lls_index_integrity_at_ir_level () =
  (* The frontend rejects assignments to an active do index, but the
     optimizer must not rely on that: inject `j = 0` into the loop body
     at the IR level and verify LLS refuses the substitution (the naive
     program never sees j = 6 at the access, so a hoisted extreme check
     against a(1:5) would trap spuriously). *)
  let src =
    "program inj\ninteger a(1:5), j\ndo j = 1, 6\na(j) = 0\nenddo\nprint j\nend"
  in
  let ir = ir_of_source src in
  let f = Nascent_ir.Program.main_func ir in
  let open Nascent_ir.Types in
  (* find the body block holding the store and prepend j = 0 *)
  let d =
    List.find_map (function Ldo d -> Some d | _ -> None) f.Nascent_ir.Func.loops
    |> Option.get
  in
  let body = Nascent_ir.Func.block f d.d_body_entry in
  body.instrs <- Assign (d.d_index, Cint 0) :: body.instrs;
  (* with the injection, the loop stores a(0)... that traps: adjust by
     assigning a safe constant value 1 instead *)
  body.instrs <-
    (match body.instrs with
    | Assign (v, Cint 0) :: rest -> Assign (v, Cint 1) :: rest
    | l -> l);
  let o1 = run ir in
  Alcotest.(check (option string)) "injected program does not trap" None o1.trap;
  let opt, stats = Core.Optimizer.optimize ~config:(Config.make ~scheme:Config.LLS ()) ir in
  Alcotest.(check int) "no linear hoist of the corrupted index" 0
    stats.Core.Optimizer.hoisted_linear;
  let o2 = run opt in
  Alcotest.(check (option string)) "optimized does not trap" None o2.trap

(* --- MCM (Markstein et al.), the paper's proposed comparison --------- *)

let test_mcm_hoists_simple_straightline_loop () =
  let src =
    "program m1\ninteger a(1:10), j, s\ns = 0\ndo j = 1, 10\ns = s + a(j)\nenddo\nprint s\nend"
  in
  let ir, opt, stats = optimize ~scheme:Config.MCM src in
  let _, o2 = assert_equivalent ir opt in
  Alcotest.(check bool) "hoisted" true (stats.Core.Optimizer.hoisted_linear > 0);
  Alcotest.(check bool) (Fmt.str "few checks (%d)" o2.checks) true (o2.checks <= 4)

let test_mcm_skips_branchy_body () =
  (* the access sits under an if: not an articulation node *)
  let src =
    "program m2\n\
     integer a(1:10), j, s\n\
     s = 0\n\
     do j = 1, 10\n\
     if j > 5 then\n\
     s = s + a(j)\n\
     endif\n\
     enddo\n\
     print s\n\
     end"
  in
  let ir, opt, stats = optimize ~scheme:Config.MCM src in
  ignore (assert_equivalent ir opt);
  ignore ir;
  Alcotest.(check int) "nothing hoisted" 0
    (stats.Core.Optimizer.hoisted_linear + stats.Core.Optimizer.hoisted_invariant)

let test_mcm_skips_complex_expressions () =
  (* 2*j - 1 is not a "simple" range expression for MCM, but LLS takes it *)
  let src =
    "program m3\ninteger a(1:19), j, s\ns = 0\ndo j = 1, 10\ns = s + a(2 * j - 1)\nenddo\nprint s\nend"
  in
  let _, opt_mcm, stats_mcm = optimize ~scheme:Config.MCM src in
  let ir, opt_lls, stats_lls = optimize ~scheme:Config.LLS src in
  ignore (assert_equivalent ir opt_lls);
  let o_mcm = run opt_mcm and o_lls = run opt_lls in
  Alcotest.(check int) "MCM hoists nothing linear" 0 stats_mcm.Core.Optimizer.hoisted_linear;
  Alcotest.(check bool) "LLS hoists it" true (stats_lls.Core.Optimizer.hoisted_linear > 0);
  Alcotest.(check bool)
    (Fmt.str "LLS (%d) < MCM (%d)" o_lls.checks o_mcm.checks)
    true
    (o_lls.checks < o_mcm.checks)

let test_mcm_trap_preserved () =
  let src =
    "program m4\ninteger a(1:10), j\ndo j = 1, 11\na(j) = 0\nenddo\nend"
  in
  let ir, opt, _ = optimize ~scheme:Config.MCM src in
  let o1, o2 = assert_equivalent ir opt in
  trap_expected o1;
  trap_expected o2

(* Golden ALL+O results: for every benchmark and check kind, the
   static checks left and the certificate's site counts, with no
   incident. The entailment cache must change none of them. *)
let all_o_golden =
  [
    ("vortex", Config.PRX, 0, 146, 146);
    ("vortex", Config.INX, 0, 146, 146);
    ("arc2d", Config.PRX, 4, 236, 236);
    ("arc2d", Config.INX, 2, 236, 236);
    ("bdna", Config.PRX, 0, 212, 212);
    ("bdna", Config.INX, 0, 212, 212);
    ("dyfesm", Config.PRX, 7, 96, 96);
    ("dyfesm", Config.INX, 7, 96, 96);
    ("mdg", Config.PRX, 0, 112, 112);
    ("mdg", Config.INX, 0, 112, 112);
    ("qcd", Config.PRX, 4, 88, 88);
    ("qcd", Config.INX, 4, 88, 88);
    ("spec77", Config.PRX, 11, 90, 90);
    ("spec77", Config.INX, 10, 90, 90);
    ("trfd", Config.PRX, 14, 62, 62);
    ("trfd", Config.INX, 12, 62, 62);
    ("linpackd", Config.PRX, 12, 192, 192);
    ("linpackd", Config.INX, 12, 192, 192);
    ("simple", Config.PRX, 6, 248, 248);
    ("simple", Config.INX, 3, 248, 248);
  ]

let test_all_o_golden () =
  List.iter
    (fun (name, kind, checks_after, sites, proven) ->
      let b = Option.get (Nascent_benchmarks.Suite.find name) in
      let config = Config.make ~scheme:Config.ALL ~kind ~oracle:true () in
      let _, st = Core.Optimizer.optimize ~config (ir_of_source b.source) in
      let label what = Fmt.str "%s %s: %s" name (Config.kind_name kind) what in
      let v = Option.get st.Core.Optimizer.validation in
      Alcotest.(check int) (label "static checks after") checks_after
        st.Core.Optimizer.static_checks_after;
      Alcotest.(check int) (label "certificate sites") sites v.Nascent_ir.Validate.total_sites;
      Alcotest.(check int) (label "proven sites") proven v.Nascent_ir.Validate.proven_sites;
      Alcotest.(check int) (label "incidents") 0 (List.length st.Core.Optimizer.incidents))
    all_o_golden

let suite =
  [
    tc "fig1: naive has 4 checks" test_fig1_naive_has_4_checks;
    tc "LLS: index integrity at IR level" test_lls_index_integrity_at_ir_level;
    tc "MCM: hoists simple straight-line loop" test_mcm_hoists_simple_straightline_loop;
    tc "MCM: skips branchy body" test_mcm_skips_branchy_body;
    tc "MCM: skips complex expressions" test_mcm_skips_complex_expressions;
    tc "MCM: trap preserved" test_mcm_trap_preserved;
    tc "fig1: NI eliminates one (implication)" test_fig1_ni_eliminates_one;
    tc "fig1: CS eliminates two (strengthening)" test_fig1_cs_eliminates_two;
    tc "fig1: NI' keeps all four" test_fig1_no_implications_keeps_4;
    tc "fig6: naive checks" test_fig6_naive_checks;
    tc "fig6: LLS hoists everything" test_fig6_lls_hoists_everything;
    tc "fig6: LI hoists only invariant" test_fig6_li_hoists_only_invariant;
    tc "fig6: zero-trip guard" test_fig6_zero_trip_guard;
    tc "LLS: trap preserved" test_lls_trap_preserved;
    tc "LLS: downward loop" test_lls_downward_loop;
    tc "LLS: step 2, constant bounds" test_lls_step2_constant_bounds;
    tc "LLS: step 3, exact extreme" test_lls_step2_exact_extreme;
    tc "LLS: symbolic bounds" test_lls_symbolic_bounds;
    tc "LLS: nested hoists to outermost" test_lls_nested_hoists_to_outermost;
    tc "LLS: triangular nest" test_lls_triangular_nest;
    tc "while: LI hoist with condition guard" test_while_li_hoist;
    tc "while: false guard never checks" test_while_guard_false_never_checks;
    tc "SE: sound across branches" test_se_eliminates_across_branches;
    tc "NI: straight-line duplicates" test_ni_straightline_duplicates;
    tc "NI: kill blocks elimination" test_ni_kill_blocks_elimination;
    tc "compile-time true checks removed" test_compile_time_true_checks_removed;
    tc "compile-time false becomes trap" test_compile_time_false_becomes_trap;
    tc "all schemes sound on mixed program" test_all_schemes_sound_on_mixed_program;
    tc "LLS beats NI (~98%)" test_lls_beats_ni;
    tc "ALL+O golden checks and certificates" test_all_o_golden;
  ]
