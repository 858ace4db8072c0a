(* Programmatic assertions of the paper's experimental conclusions
   (EXPERIMENTS.md records the full numbers). These run the actual
   harness on the 10-program suite, so they are the slowest tests — but
   they are what makes the reproduction a regression test rather than a
   one-off measurement. *)

open Util
module B = Nascent_benchmarks.Suite
module E = Nascent_harness.Experiments
module Config = Nascent_core.Config

let chars = lazy (E.characterize_all ())

let avg cells =
  List.fold_left (fun a (c : E.cell) -> a +. c.E.pct_eliminated) 0.0 cells
  /. float_of_int (List.length cells)

let cell_for (row : E.row) name =
  let names = List.map (fun (c : E.characteristics) -> c.E.bench.B.name) (Lazy.force chars) in
  List.nth row.E.cells
    (Option.get (List.find_index (fun n -> n = name) names))

let rows kind table = List.assoc kind table

let row label kind table =
  List.find (fun (r : E.row) -> r.E.label = label) (rows kind table)

(* Table 1 conclusion: the dynamic check/instruction ratio is tens of
   percent for every program — naive checking is expensive. *)
let test_table1_ratio_band () =
  List.iter
    (fun (c : E.characteristics) ->
      let r = 100.0 *. float_of_int c.E.dyn_checks /. float_of_int c.E.dyn_instrs in
      Alcotest.(check bool)
        (Fmt.str "%s ratio %.0f%% in [15, 90]" c.E.bench.B.name r)
        true
        (r >= 15.0 && r <= 90.0))
    (Lazy.force chars)

(* Table 1: suite structure matches the paper's framing. *)
let test_table1_structure () =
  let cs = Lazy.force chars in
  Alcotest.(check int) "ten programs" 10 (List.length cs);
  List.iter
    (fun (c : E.characteristics) ->
      Alcotest.(check bool)
        (Fmt.str "%s has loops" c.E.bench.B.name)
        true (c.E.loops > 0);
      Alcotest.(check bool)
        (Fmt.str "%s multi-unit" c.E.bench.B.name)
        true (c.E.subroutines >= 3))
    cs

let table2 = lazy (E.table2 (Lazy.force chars))

(* Table 2, conclusion 3: "loop-based optimizations that hoist checks
   out of loops are effective in eliminating about 98% of the range
   checks". *)
let test_lls_eliminates_most () =
  let lls = row "LLS" Config.PRX (Lazy.force table2) in
  Alcotest.(check bool) (Fmt.str "PRX LLS mean %.1f >= 94" (avg lls.E.cells)) true
    (avg lls.E.cells >= 94.0);
  List.iter2
    (fun (c : E.characteristics) (cell : E.cell) ->
      Alcotest.(check bool)
        (Fmt.str "%s LLS %.1f >= 85" c.E.bench.B.name cell.E.pct_eliminated)
        true
        (cell.E.pct_eliminated >= 85.0))
    (Lazy.force chars) lls.E.cells

(* Table 2, conclusion 4: "more sophisticated analysis and optimization
   algorithms produce very marginal benefits" — ALL barely beats LLS,
   and the PRE schemes barely beat NI. *)
let test_sophistication_is_marginal () =
  let t = Lazy.force table2 in
  let lls = row "LLS" Config.PRX t and all = row "ALL" Config.PRX t in
  Alcotest.(check bool)
    (Fmt.str "ALL - LLS = %.2f <= 1.0" (avg all.E.cells -. avg lls.E.cells))
    true
    (avg all.E.cells -. avg lls.E.cells <= 1.0);
  let ni = row "NI" Config.PRX t and se = row "SE" Config.PRX t in
  Alcotest.(check bool)
    (Fmt.str "SE - NI = %.2f <= 8" (avg se.E.cells -. avg ni.E.cells))
    true
    (avg se.E.cells -. avg ni.E.cells <= 8.0)

(* Scheme ordering per program: NI <= CS <= SE, LNI <= SE, NI <= LI <= LLS <= ALL
   (dynamic % eliminated; all schemes end with the same elimination pass). *)
let test_scheme_ordering () =
  let t = Lazy.force table2 in
  List.iter
    (fun kind ->
      let get label = row label kind t in
      List.iter
        (fun (c : E.characteristics) ->
          let p label = (cell_for (get label) c.E.bench.B.name).E.pct_eliminated in
          let name = c.E.bench.B.name in
          let le a b la lb =
            Alcotest.(check bool)
              (Fmt.str "%s/%s: %s (%.2f) <= %s (%.2f)" name (Config.kind_name kind) la a
                 lb b)
              true
              (a <= b +. 1e-9)
          in
          le (p "NI") (p "CS") "NI" "CS";
          le (p "NI") (p "LNI") "NI" "LNI";
          le (p "LNI") (p "SE") "LNI" "SE";
          le (p "NI") (p "LI") "NI" "LI";
          le (p "LI") (p "LLS") "LI" "LLS")
        (Lazy.force chars))
    [ Config.PRX; Config.INX ]

(* The paper's Q3 (does IV analysis help?): the trfd LI case — INX-LI
   eliminates substantially more than PRX-LI. *)
let test_inx_li_trfd_case () =
  let t = Lazy.force table2 in
  let prx = (cell_for (row "LI" Config.PRX t) "trfd").E.pct_eliminated in
  let inx = (cell_for (row "LI" Config.INX t) "trfd").E.pct_eliminated in
  Alcotest.(check bool)
    (Fmt.str "trfd: INX-LI (%.1f) >= PRX-LI (%.1f) + 5" inx prx)
    true
    (inx >= prx +. 5.0)

(* ... and INX is "never very bad": no scheme loses more than a few
   points moving from PRX to INX. *)
let test_inx_never_very_bad () =
  let t = Lazy.force table2 in
  List.iter
    (fun scheme ->
      let label = Config.scheme_name scheme in
      let prx = row label Config.PRX t and inx = row label Config.INX t in
      List.iter
        (fun (c : E.characteristics) ->
          let p = (cell_for prx c.E.bench.B.name).E.pct_eliminated in
          let i = (cell_for inx c.E.bench.B.name).E.pct_eliminated in
          Alcotest.(check bool)
            (Fmt.str "%s/%s: INX %.1f >= PRX %.1f - 4" c.E.bench.B.name label i p)
            true
            (i >= p -. 4.0))
        (Lazy.force chars))
    Config.all_schemes

let table3 = lazy (E.table3 ~kinds:[ Config.PRX ] (Lazy.force chars))

(* Table 3: dropping implications costs only a few points... *)
let test_implications_marginal () =
  let t = Lazy.force table3 in
  let pairs = [ ("NI", "NI'"); ("SE", "SE'"); ("LLS", "LLS'") ] in
  List.iter
    (fun (a, b) ->
      let ra = row a Config.PRX t and rb = row b Config.PRX t in
      List.iter
        (fun (c : E.characteristics) ->
          let pa = (cell_for ra c.E.bench.B.name).E.pct_eliminated in
          let pb = (cell_for rb c.E.bench.B.name).E.pct_eliminated in
          Alcotest.(check bool)
            (Fmt.str "%s: %s (%.1f) loses <= 15 vs %s (%.1f)" c.E.bench.B.name b pb a pa)
            true
            (pa -. pb <= 15.0);
          Alcotest.(check bool)
            (Fmt.str "%s: %s never beats %s" c.E.bench.B.name b a)
            true
            (pb <= pa +. 1e-9))
        (Lazy.force chars))
    pairs

(* ... and the preheader->body coverage is the implication that
   matters: LLS' stays within a point of LLS. *)
let test_lls_prime_close () =
  let t = Lazy.force table3 in
  let lls = row "LLS" Config.PRX t and lls' = row "LLS'" Config.PRX t in
  List.iter
    (fun (c : E.characteristics) ->
      let a = (cell_for lls c.E.bench.B.name).E.pct_eliminated in
      let b = (cell_for lls' c.E.bench.B.name).E.pct_eliminated in
      Alcotest.(check bool)
        (Fmt.str "%s: LLS' (%.2f) within 1.5 of LLS (%.2f)" c.E.bench.B.name b a)
        true
        (a -. b <= 1.5))
    (Lazy.force chars)

(* Compile-time ordering (Table 2/3 Range column): NI is cheaper than
   ALL. Range times are wall-clock sums, so each scheme's is its fastest
   of three timing passes (Table 2's and two more, past the cell
   cache): one scheduling or GC pause cannot decide the comparison. *)
let test_compile_time_ordering () =
  let t = Lazy.force table2 in
  let range label scheme =
    let again () =
      E.reset_cell_cache ();
      (E.run_row (Lazy.force chars) (Config.make ~scheme ~kind:Config.PRX ())).E.total_range_s
    in
    List.fold_left Float.min (row label Config.PRX t).E.total_range_s [ again (); again () ]
  in
  let ni = range "NI" Config.NI and all = range "ALL" Config.ALL in
  Alcotest.(check bool) (Fmt.str "NI (%.4fs) cheapest vs ALL (%.4fs)" ni all) true (ni <= all)

(* Extension: the MCM comparison the paper proposes in section 5 — the
   restricted 1982 algorithm must fall well short of LLS on the suite
   mean (that is the motivation for the paper's relaxations). *)
let test_mcm_below_lls () =
  let ext = E.extensions (Lazy.force chars) in
  let mcm = row "MCM" Config.PRX ext and lls = row "LLS" Config.PRX ext in
  Alcotest.(check bool)
    (Fmt.str "MCM mean %.1f << LLS mean %.1f" (avg mcm.E.cells) (avg lls.E.cells))
    true
    (avg mcm.E.cells +. 5.0 <= avg lls.E.cells)

let suite =
  [
    tc "table1: ratio band" test_table1_ratio_band;
    tc "extension: MCM below LLS" test_mcm_below_lls;
    tc "table1: structure" test_table1_structure;
    tc "table2: LLS eliminates most" test_lls_eliminates_most;
    tc "table2: sophistication marginal" test_sophistication_is_marginal;
    tc "table2: scheme ordering" test_scheme_ordering;
    tc "table2: INX-LI trfd case" test_inx_li_trfd_case;
    tc "table2: INX never very bad" test_inx_never_very_bad;
    tc "table3: implications marginal" test_implications_marginal;
    tc "table3: LLS' close to LLS" test_lls_prime_close;
    tc "compile-time ordering" test_compile_time_ordering;
  ]
