(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 4) on the 10-program MiniF suite. The
   optimizer's speed is measured by the ledger (bench/ledger), not
   here.

   Table generation fans the (benchmark × config) matrix over the
   domain pool (NASCENT_JOBS, default: host core count).

   Usage:
     dune exec bench/main.exe               # tables and figures
     dune exec bench/main.exe -- table1     # just Table 1
     dune exec bench/main.exe -- table2 | table3 | figures | canon | extensions
     dune exec bench/main.exe -- tables     # tables only (CI mode)
     dune exec bench/main.exe -- check-determinism  # serial vs parallel + oracle differential
     dune exec bench/main.exe -- oracle-diff  # --oracle vs baseline observable-identity matrix
*)

module E = Nascent_harness.Experiments
module Report = Nascent_harness.Report
module Figures = Nascent_harness.Figures
module Config = Nascent_core.Config
module Core = Nascent_core
module Ir = Nascent_ir
module Run = Nascent_interp.Run
module B = Nascent_benchmarks.Suite
module Pool = Nascent_support.Pool

let chars = lazy (E.characterize_all ())

(* Incident accounting: any cell that compiled degraded (a rolled-back
   optimizer pass) taints the numbers it contributed to — say so next
   to the table rather than leaving it buried in a stats record. *)
let incident_report what (tables : (Config.check_kind * E.row list) list) =
  let n =
    List.fold_left
      (fun acc (_, rows) ->
        List.fold_left
          (fun acc (r : E.row) ->
            List.fold_left (fun acc (c : E.cell) -> acc + c.E.incidents) acc r.E.cells)
          acc rows)
      0 tables
  in
  if n > 0 then
    Printf.printf "[incidents] %s: %d optimizer pass(es) rolled back — the affected \
                   cells report degraded (but safe) numbers\n%!"
      what n

let run_table1 () = Report.table1 (Lazy.force chars)

let run_table2 () =
  let chars = Lazy.force chars in
  let tables = E.table2 chars in
  Report.table2 chars tables;
  incident_report "table2" tables

let run_table3 () =
  let chars = Lazy.force chars in
  let tables = E.table3 chars in
  Report.table3 chars tables;
  incident_report "table3" tables

let run_canon () = Report.canon (E.canon_ablation (Lazy.force chars))

let run_extensions () =
  let chars = Lazy.force chars in
  let tables = E.extensions chars in
  Report.extensions chars tables;
  incident_report "extensions" tables

(* Table-only mode: every table, no figures, for CI. *)
let run_tables () =
  run_table1 ();
  run_table2 ();
  run_table3 ();
  run_extensions ();
  run_canon ()

(* --- oracle differential: --oracle vs baseline ------------------------ *)

(* The decision-procedure sweep (--oracle) may only delete checks it
   has proved can never trap, so across the whole benchmark × scheme ×
   kind matrix an oracle compile must be interpreter-observably
   identical to the baseline compile — same printed values, same
   trap/error behaviour — while executing no more dynamic checks. Each
   oracle cell must also carry a translation-validation certificate.
   Any divergence is a soundness bug, so the determinism gate fails on
   it. *)
let run_oracle_differential () =
  let failures = ref 0 in
  let cells = ref 0 in
  let strict = ref 0 in
  List.iter
    (fun (b : B.benchmark) ->
      let ir = Ir.Lower.of_source b.B.source in
      List.iter
        (fun scheme ->
          List.iter
            (fun kind ->
              incr cells;
              let compile oracle =
                let config = Config.make ~scheme ~kind ~oracle () in
                let opt, stats = Core.Optimizer.optimize ~config ir in
                (Run.run opt, stats)
              in
              let base, _ = compile false in
              let orac, stats = compile true in
              let where =
                Printf.sprintf "%s %s/%s" b.B.name
                  (Config.scheme_name scheme) (Config.kind_name kind)
              in
              let fail msg =
                incr failures;
                Printf.eprintf "FAIL: oracle differential: %s: %s\n%!" where msg
              in
              if orac.Run.printed <> base.Run.printed then
                fail "prints different values under --oracle";
              if orac.Run.trap <> base.Run.trap then
                fail
                  (Printf.sprintf "trap diverges under --oracle (%s vs %s)"
                     (Option.value ~default:"-" orac.Run.trap)
                     (Option.value ~default:"-" base.Run.trap));
              if orac.Run.error <> base.Run.error then
                fail "runtime error diverges under --oracle";
              if orac.Run.checks > base.Run.checks then
                fail
                  (Printf.sprintf "executes more checks than baseline (%d > %d)"
                     orac.Run.checks base.Run.checks);
              if orac.Run.checks < base.Run.checks then incr strict;
              if Core.Optimizer.validated stats <> Some true then
                fail "oracle compile carries no validation certificate")
            [ Config.PRX; Config.INX ])
        Config.extended_schemes)
    B.all;
  if !failures > 0 then begin
    Printf.eprintf "FAIL: oracle differential: %d violation(s) in %d cell(s)\n%!"
      !failures !cells;
    exit 1
  end;
  Printf.printf
    "oracle differential OK: %d cell(s) observably identical, oracle strictly \
     cheaper on %d\n\
     %!"
    !cells !strict

(* --- determinism gate: serial vs parallel ------------------------------ *)

(* The full table suite minus timing columns: what must be invariant
   across pool sizes. Timings (range/compile seconds) legitimately
   differ between runs; everything else diverging means a pool bug, so
   CI fails on it. *)
let structural_row (r : E.row) =
  ( r.E.label,
    Config.cache_key r.E.config,
    List.map
      (fun (c : E.cell) ->
        (c.E.dyn_checks_after, c.E.pct_eliminated, List.map fst c.E.pass_times,
         c.E.incidents))
      r.E.cells )

let structural tables =
  List.map
    (fun (kind, rows) -> (Config.kind_name kind, List.map structural_row rows))
    (List.concat tables)

let full_suite () =
  let chars = E.characterize_all () in
  (chars, [ E.table2 chars; E.table3 chars; E.extensions chars ])

let run_check_determinism () =
  let par_jobs = max 2 (Pool.default_jobs ()) in
  print_endline "";
  Printf.printf "determinism gate: serial vs jobs=%d\n%!" par_jobs;
  Pool.set_default_jobs 1;
  let _, serial = full_suite () in
  Pool.set_default_jobs par_jobs;
  let _, parallel = full_suite () in
  if structural serial <> structural parallel then begin
    Printf.eprintf "FAIL: parallel tables diverge from the serial run\n%!";
    exit 1
  end;
  Printf.printf "determinism gate OK: serial == jobs=%d\n%!" par_jobs;
  run_oracle_differential ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let what = match args with [] -> [ "all" ] | xs -> xs in
  let run = function
    | "table1" -> run_table1 ()
    | "table2" -> run_table2 ()
    | "table3" -> run_table3 ()
    | "figures" -> Figures.all ()
    | "canon" -> run_canon ()
    | "extensions" -> run_extensions ()
    | "tables" -> run_tables ()
    | "check-determinism" -> run_check_determinism ()
    | "oracle-diff" -> run_oracle_differential ()
    | "all" ->
        run_tables ();
        Figures.all ()
    | other ->
        Printf.eprintf "unknown target %s\n" other;
        exit 1
  in
  List.iter run what
