(* Experiment harness: computes the data behind the paper's Tables 1-3
   over the 10-program MiniF suite.

   Measurements mirror the paper's methodology:
   - dynamic counts come from the instrumented interpreter (the paper's
     instrumented-C back-end);
   - "% of checks eliminated" is relative to the dynamic check count of
     the naively checked program;
   - the "Range" column is the wall-clock time of the range-check
     optimization phase, and "Nascent" the whole compile (parse +
     semantic analysis + lowering + optimization), both summed over the
     suite. *)

module B = Nascent_benchmarks.Suite
module Ir = Nascent_ir
module Core = Nascent_core
module Config = Core.Config
module Universe = Nascent_checks.Universe
module Loops = Nascent_analysis.Loops
module Run = Nascent_interp.Run
module Pool = Nascent_support.Pool
module Memo = Nascent_support.Memo

(* Every (benchmark × configuration) cell is a pure function of its
   inputs and runs on its own lowered copy, so the matrix fans out over
   the process-wide domain pool (NASCENT_JOBS / --jobs /
   Pool.set_default_jobs; jobs=1 is the serial path) and lands in a
   content-addressed cache. Determinism across pool sizes and the
   byte-identity of warm-cache reruns are pinned by
   test/test_parallel.ml. *)
let pool () = Pool.global ()

(* Per-cell watchdog: every cell runs under its own Guard fuel budget,
   charged one tick per fixpoint block visit, so one divergent
   cell fails (lowest-index exception, per the pool contract) instead
   of wedging a worker domain for the whole matrix. The budget is ~3
   orders of magnitude above what the suite's hottest cell uses. *)
let cell_fuel = 50_000_000

let parallel_map f xs = Pool.parallel_map ~task_fuel:cell_fuel (pool ()) f xs

(* --- Table 1: program characteristics -------------------------------- *)

type characteristics = {
  bench : B.benchmark;
  ir : Ir.Program.t; (* naive-checked IR *)
  lines : int;
  subroutines : int;
  loops : int;
  static_instrs : int;
  static_checks : int;
  dyn_instrs : int; (* of the program without any checks *)
  dyn_checks : int; (* of the naively checked program *)
}

let characterize (bench : B.benchmark) : characteristics =
  let ir = Ir.Lower.of_source bench.B.source in
  let funcs = Ir.Program.funcs_sorted ir in
  let subroutines = List.length funcs in
  let loops =
    List.fold_left (fun acc f -> acc + List.length (Loops.compute f)) 0 funcs
  in
  let static_instrs, static_checks = Ir.Program.static_counts ir in
  let bare = Ir.Transform.strip_checks ir in
  let o_bare = Run.run bare in
  let o_naive = Run.run ir in
  (match (o_naive.Run.trap, o_naive.Run.error) with
  | None, None -> ()
  | Some t, _ -> invalid_arg (bench.B.name ^ " traps under naive checking: " ^ t)
  | _, Some e -> invalid_arg (bench.B.name ^ " errors: " ^ e));
  {
    bench;
    ir;
    lines = B.line_count bench;
    subroutines;
    loops;
    static_instrs;
    static_checks;
    dyn_instrs = o_bare.Run.instrs;
    dyn_checks = o_naive.Run.checks;
  }

let characterize_all () = parallel_map characterize B.all

(* --- Tables 2 and 3: per-configuration runs -------------------------- *)

type cell = {
  pct_eliminated : float;
  dyn_checks_after : int;
  range_time_s : float; (* optimization phase *)
  compile_time_s : float; (* parse + lower + optimize *)
  pass_times : (string * float) list; (* per-pass range-time breakdown *)
  incidents : int;
      (* optimizer passes rolled back while computing this cell; 0 in a
         healthy run, structural (invariant across pool sizes) *)
}

let cell_cache : cell Memo.t = Memo.create ()
let cell_cache_stats () = Memo.stats cell_cache
let reset_cell_cache () = Memo.clear cell_cache

let run_config (c : characteristics) (config : Config.t) : cell =
  (* Timing run: the invariant verifier is a measurement harness, not a
     compiler pass, so it is switched off here (the test suite runs the
     same matrix with it on). *)
  let config = { config with Config.verify = false } in
  let key =
    Memo.key [ c.bench.B.name; c.bench.B.source; Config.cache_key config ]
  in
  Memo.find_or_compute cell_cache ~key @@ fun () ->
  let t0 = Nascent_support.Mclock.counter () in
  let ir = Ir.Lower.of_source c.bench.B.source in
  let opt, stats = Core.Optimizer.optimize ~config ir in
  let compile_time_s = Nascent_support.Mclock.elapsed_s t0 in
  let o = Run.run opt in
  (match (o.Run.trap, o.Run.error) with
  | None, None -> ()
  | Some t, _ ->
      invalid_arg
        (Fmt.str "%s traps under %a: %s" c.bench.B.name Config.pp config t)
  | _, Some e -> invalid_arg (Fmt.str "%s errors under %a: %s" c.bench.B.name Config.pp config e));
  let eliminated = c.dyn_checks - o.Run.checks in
  {
    pct_eliminated = 100.0 *. float_of_int eliminated /. float_of_int c.dyn_checks;
    dyn_checks_after = o.Run.checks;
    range_time_s = stats.Core.Optimizer.elapsed_s;
    compile_time_s;
    pass_times =
      List.map
        (fun p -> (p.Core.Optimizer.pass, p.Core.Optimizer.pass_time_s))
        stats.Core.Optimizer.passes;
    incidents = List.length stats.Core.Optimizer.incidents;
  }

(* A table row: one (scheme, kind, impl) configuration across all
   programs, plus summed times. *)
type row = {
  label : string;
  config : Config.t;
  cells : cell list; (* one per program, suite order *)
  total_range_s : float;
  total_compile_s : float;
  pass_totals : (string * float) list; (* suite-summed per-pass breakdown *)
}

(* Sum per-pass times across the suite, keeping pipeline order. *)
let sum_pass_times (cells : cell list) : (string * float) list =
  List.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc (name, t) ->
          if List.mem_assoc name acc then
            List.map (fun (n, t0) -> if n = name then (n, t0 +. t) else (n, t0)) acc
          else acc @ [ (name, t) ])
        acc c.pass_times)
    [] cells

let make_row ~label ~config cells =
  {
    label =
      (match label with Some l -> l | None -> Config.scheme_name config.Config.scheme);
    config;
    cells;
    total_range_s = List.fold_left (fun a c -> a +. c.range_time_s) 0.0 cells;
    total_compile_s = List.fold_left (fun a c -> a +. c.compile_time_s) 0.0 cells;
    pass_totals = sum_pass_times cells;
  }

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []
let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | xs -> xs

(* Compute several rows' cells in ONE fan-out: the whole
   (benchmark × config) matrix flattens into a single parallel_map
   whose row-major result order rebuilds the rows deterministically. *)
let run_rows (chars : characteristics list)
    (specs : (string option * Config.t) list) : row list =
  let tasks =
    List.concat_map (fun (_, config) -> List.map (fun c -> (c, config)) chars) specs
  in
  let cells = parallel_map (fun (c, config) -> run_config c config) tasks in
  let n = List.length chars in
  let rec rows specs cells =
    match specs with
    | [] -> []
    | (label, config) :: rest ->
        make_row ~label ~config (take n cells) :: rows rest (drop n cells)
  in
  rows specs cells

let run_row ?label (chars : characteristics list) (config : Config.t) : row =
  List.hd (run_rows chars [ (label, config) ])

(* Group labelled per-kind specs, fan the whole table out at once, and
   chunk the rows back under their kinds. *)
let run_table (chars : characteristics list)
    (groups : (Config.check_kind * (string option * Config.t) list) list) :
    (Config.check_kind * row list) list =
  let rows = run_rows chars (List.concat_map snd groups) in
  let rec regroup groups rows =
    match groups with
    | [] -> []
    | (kind, specs) :: rest ->
        let k = List.length specs in
        (kind, take k rows) :: regroup rest (drop k rows)
  in
  regroup groups rows

(* Table 2: the seven placement schemes x {PRX, INX}, full implications. *)
let table2 ?(kinds = [ Config.PRX; Config.INX ]) (chars : characteristics list) :
    (Config.check_kind * row list) list =
  run_table chars
    (List.map
       (fun kind ->
         ( kind,
           List.map
             (fun scheme -> (None, Config.make ~scheme ~kind ()))
             Config.all_schemes ))
       kinds)

(* Table 3: implication ablation — NI/NI', SE/SE' (no implications at
   all), LLS/LLS' (cross-family only), and ALL/ALL+O (the within-family
   rule alone vs that rule plus the Fourier–Motzkin implication oracle,
   which adds cross-family availability edges and conjunction-level
   redundancy). *)
let table3 ?(kinds = [ Config.PRX; Config.INX ]) (chars : characteristics list) :
    (Config.check_kind * row list) list =
  let variants =
    [
      ("NI", Config.NI, Universe.All_implications, false);
      ("NI'", Config.NI, Universe.No_implications, false);
      ("SE", Config.SE, Universe.All_implications, false);
      ("SE'", Config.SE, Universe.No_implications, false);
      ("LLS", Config.LLS, Universe.All_implications, false);
      ("LLS'", Config.LLS, Universe.Cross_family_only, false);
      ("ALL", Config.ALL, Universe.All_implications, false);
      ("ALL+O", Config.ALL, Universe.All_implications, true);
    ]
  in
  run_table chars
    (List.map
       (fun kind ->
         ( kind,
           List.map
             (fun (label, scheme, impl, oracle) ->
               (Some label, Config.make ~scheme ~kind ~impl ~oracle ()))
             variants ))
       kinds)

(* Extension experiment (paper section 5): the comparison the paper
   proposes — Markstein/Cocke/Markstein's restricted preheader
   insertion vs LI and LLS. *)
let extensions (chars : characteristics list) : (Config.check_kind * row list) list =
  run_table chars
    [
      ( Config.PRX,
        List.map
          (fun scheme -> (None, Config.make ~scheme ()))
          [ Config.LI; Config.MCM; Config.LLS ] );
    ]

(* --- canonical-form ablation (design decision 1 in DESIGN.md) --------- *)

(* How much does gcd-normalizing the canonical form shrink the check
   population? Counts distinct canonical checks and families across the
   suite, with and without the gcd rule. *)
type canon_ablation = {
  distinct_checks : int;
  distinct_checks_gcd : int;
  families : int;
  families_gcd : int;
}

let canon_ablation (chars : characteristics list) : canon_ablation =
  let module Check = Nascent_checks.Check in
  let module CS = Set.Make (struct
    type t = Check.t

    let compare = Check.compare
  end) in
  let module LS = Set.Make (struct
    type t = Nascent_checks.Linexpr.t

    let compare = Nascent_checks.Linexpr.compare
  end) in
  let plain = ref CS.empty
  and gcd = ref CS.empty
  and fam = ref LS.empty
  and famg = ref LS.empty in
  List.iter
    (fun c ->
      Ir.Program.iter_funcs
        (fun f ->
          List.iter
            (fun (m : Ir.Types.check_meta) ->
              let chk = m.Ir.Types.chk in
              let g = Check.gcd_normalize chk in
              plain := CS.add chk !plain;
              gcd := CS.add g !gcd;
              fam := LS.add (Check.lhs chk) !fam;
              famg := LS.add (Check.lhs g) !famg)
            (Ir.Func.all_check_metas f))
        c.ir)
    chars;
  {
    distinct_checks = CS.cardinal !plain;
    distinct_checks_gcd = CS.cardinal !gcd;
    families = LS.cardinal !fam;
    families_gcd = LS.cardinal !famg;
  }
