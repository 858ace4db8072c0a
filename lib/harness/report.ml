(* Text rendering of the experiment tables, in the layout of the
   paper's Tables 1-3. *)

module B = Nascent_benchmarks.Suite
module Config = Nascent_core.Config
module E = Experiments

let pf = Format.printf

let program_names (chars : E.characteristics list) =
  List.map (fun c -> c.E.bench.B.name) chars

let hrule cols = pf "%s@." (String.make cols '-')

(* --- Table 1 ---------------------------------------------------------- *)

let table1 (chars : E.characteristics list) =
  pf "@.Table 1: program characteristics of benchmark programs@.";
  hrule 106;
  pf "%-8s %-10s %5s %5s %6s | %9s %12s | %8s %12s | %6s %7s@." "suite" "program"
    "lines" "subr" "loops" "instr(s)" "instr(d)" "chk(s)" "chk(d)" "s-rat%" "d-rat%";
  hrule 106;
  List.iter
    (fun (c : E.characteristics) ->
      let srat = 100.0 *. float_of_int c.E.static_checks /. float_of_int c.E.static_instrs in
      let drat = 100.0 *. float_of_int c.E.dyn_checks /. float_of_int c.E.dyn_instrs in
      pf "%-8s %-10s %5d %5d %6d | %9d %12d | %8d %12d | %6.0f %7.0f@."
        c.E.bench.B.bsuite c.E.bench.B.name c.E.lines c.E.subroutines c.E.loops
        c.E.static_instrs c.E.dyn_instrs c.E.static_checks c.E.dyn_checks srat drat)
    chars;
  hrule 106;
  let min_r, max_r =
    List.fold_left
      (fun (mn, mx) (c : E.characteristics) ->
        let r = 100.0 *. float_of_int c.E.dyn_checks /. float_of_int c.E.dyn_instrs in
        (Float.min mn r, Float.max mx r))
      (infinity, neg_infinity) chars
  in
  pf "dynamic check/instr ratio: %.0f%% .. %.0f%% (paper: 22%%..66%%) => naive range@." min_r max_r;
  pf "checking costs tens of percent of execution: optimization is warranted.@."

(* --- Tables 2 and 3 --------------------------------------------------- *)

let pct_table ~title (chars : E.characteristics list)
    (groups : (Config.check_kind * E.row list) list) =
  pf "@.%s@." title;
  let names = program_names chars in
  let w = 110 in
  hrule w;
  pf "%-11s" "";
  List.iter (fun n -> pf "%9s" (String.sub n 0 (min 8 (String.length n)))) names;
  pf "%9s %9s@." "Range(s)" "Compile(s)";
  hrule w;
  List.iter
    (fun (kind, rows) ->
      pf "-- %s checks --@." (Config.kind_name kind);
      List.iter
        (fun (r : E.row) ->
          pf "%-11s" r.E.label;
          List.iter (fun (c : E.cell) -> pf "%9.2f" c.E.pct_eliminated) r.E.cells;
          pf "%9.3f %9.3f@." r.E.total_range_s r.E.total_compile_s)
        rows)
    groups;
  hrule w;
  (* the Range column, decomposed: suite-summed monotonic time per
     optimizer pass *)
  pf "per-pass range-time breakdown (suite totals, ms):@.";
  List.iter
    (fun (kind, rows) ->
      List.iter
        (fun (r : E.row) ->
          pf "  %s/%-8s" (Config.kind_name kind) r.E.label;
          List.iter (fun (name, t) -> pf " %s %.3f" name (1000.0 *. t)) r.E.pass_totals;
          pf "@.")
        rows)
    groups;
  hrule w

let table2 chars groups =
  pct_table
    ~title:
      "Table 2: percentage of dynamic checks eliminated by each placement scheme\n\
       (NI = no insertion, CS = strengthening, LNI = latest-not-isolated,\n\
       SE = safe-earliest, LI = invariant preheader, LLS = loop-limit\n\
       substitution, ALL = LLS + SE)"
    chars groups;
  (* headline conclusions, checked programmatically by the test suite *)
  let find kind label =
    let rows = List.assoc kind groups in
    List.find (fun (r : E.row) -> r.E.label = label) rows
  in
  let avg (r : E.row) =
    List.fold_left (fun a (c : E.cell) -> a +. c.E.pct_eliminated) 0.0 r.E.cells
    /. float_of_int (List.length r.E.cells)
  in
  let ni = avg (find Config.PRX "NI")
  and lls = avg (find Config.PRX "LLS")
  and all = avg (find Config.PRX "ALL") in
  pf "suite means (PRX): NI %.1f%%  LLS %.1f%%  ALL %.1f%%@." ni lls all;
  pf "=> loop-based hoisting eliminates ~%.0f%% of checks; ALL adds only %+.2f points@."
    lls (all -. lls)

let table3 chars groups =
  pct_table
    ~title:
      "Table 3: implication ablation (primed rows disable implications:\n\
       NI'/SE' entirely, LLS' within-family only; ALL+O adds the\n\
       Fourier-Motzkin implication oracle on top of the family rule)"
    chars groups

let extensions chars groups =
  pct_table
    ~title:
      "Extension (paper section 5): Markstein/Cocke/Markstein 1982 vs the\n\
       paper's preheader schemes (MCM hoists only simple checks from\n\
       articulation nodes, by dominance reasoning alone)"
    chars groups

(* --- canonical-form ablation ------------------------------------------ *)

let canon (a : E.canon_ablation) =
  pf "@.Canonical-form ablation (DESIGN.md decision 1):@.";
  pf "  distinct static checks: %d, with gcd normalization: %d@." a.E.distinct_checks
    a.E.distinct_checks_gcd;
  pf "  families: %d, with gcd normalization: %d@." a.E.families a.E.families_gcd;
  pf "  (the paper's canonical form corresponds to the non-gcd columns)@."
