(* Unit-level tests of the core optimizer machinery: the context's
   check table, availability/anticipatability block values, and the
   elimination pass internals — complementing the scheme-level tests in
   test_optimizer.ml. *)

open Util
module Ir = Nascent_ir
module Core = Nascent_core
module Checkctx = Core.Checkctx
module Analyses = Core.Analyses
module Universe = Nascent_checks.Universe
module Intern = Nascent_checks.Intern
module Check = Nascent_checks.Check
module Work = Nascent_checks.Work
module Config = Core.Config
module Bitset = Nascent_support.Bitset
open Ir.Types

let ctx_of_func f =
  Checkctx.create ~mode:Universe.All_implications ~oracle:false ~pool:(Intern.create ()) f

let ctx_of src =
  let prog = ir_of_source src in
  (prog, ctx_of_func (Ir.Program.main_func prog))

let straightline = "program t\ninteger a(1:10), n\nn = 5\na(n) = 1\na(n) = 2\nprint n\nend"

let test_universe_built_from_function () =
  let _, ctx = ctx_of straightline in
  let uni = Checkctx.universe ctx in
  (* a(n) twice: upper n <= 10 and lower -n <= -1, 2 distinct checks *)
  Alcotest.(check int) "two distinct checks" 2 (Intern.size (Universe.pool uni));
  Alcotest.(check int) "both present" 2 (Bitset.cardinal ctx.Checkctx.present)

let test_availability_flows_forward () =
  let _, ctx = ctx_of straightline in
  ignore (Checkctx.universe ctx);
  let av = Analyses.availability ctx in
  let f = ctx.Checkctx.func in
  (* at function exit everything performed is available (no kills after) *)
  let exit_blocks =
    List.filter (fun b -> Ir.Func.succs f b = []) (Ir.Func.rpo f)
  in
  List.iter
    (fun b ->
      Alcotest.(check int) "all available at exit" (Bitset.cardinal ctx.Checkctx.present)
        (Bitset.cardinal av.Nascent_analysis.Dataflow.out.(b)))
    exit_blocks

let test_availability_killed_by_assignment () =
  let _, ctx =
    ctx_of "program t\ninteger a(1:10), n\nn = 5\na(n) = 1\nn = 6\na(n) = 2\nprint n\nend"
  in
  let uni = Checkctx.universe ctx in
  (* walk the entry block: after `n = 6` the n-checks must not be
     available (the table's kill sets) *)
  let f = ctx.Checkctx.func in
  let b = Ir.Func.block f f.Ir.Func.entry in
  let killed =
    List.concat_map
      (fun i ->
        match i with
        | Assign (v, _) when v.vname = "n" ->
            Bitset.elements
              (let s = Bitset.create (Universe.size uni) in
               List.iter
                 (fun k -> Bitset.union_into ~into:s (Universe.killed_by_key uni k))
                 (Ir.Atoms.killed_by f.Ir.Func.atoms i);
               s)
        | _ -> [])
      b.instrs
  in
  Alcotest.(check bool) "assignment to n kills checks" true (List.length killed > 0)

let test_anticipatability_at_entry () =
  let _, ctx = ctx_of straightline in
  ignore (Checkctx.universe ctx);
  let ant = Analyses.anticipatability ctx in
  let f = ctx.Checkctx.func in
  (* after `n = 5`, both checks are anticipatable — but at the very
     function entry n is about to be assigned, so ANT-IN(entry) is
     empty only if the checks mention n (they do) *)
  Alcotest.(check bool) "nothing anticipatable before n defined" true
    (Bitset.is_empty ant.Nascent_analysis.Dataflow.in_.(f.Ir.Func.entry))

let test_eliminate_counts () =
  let prog, _ = ctx_of straightline in
  let copy = Ir.Transform.copy_program prog in
  let f = Ir.Program.main_func copy in
  let ctx = ctx_of_func f in
  (* the elimination tail, in the optimizer's order *)
  let st = Checkctx.counts () in
  Core.Eliminate.redundancy_elimination ctx st;
  if Universe.oracle ctx.Checkctx.table then
    ignore (Core.Eliminate.oracle_elimination ~pool:(Universe.pool ctx.Checkctx.table) f st);
  Core.Eliminate.compile_time_checks f st;
  (* duplicate pair eliminated *)
  Alcotest.(check int) "redundant deleted" 2 st.Checkctx.redundant_deleted;
  let _, remaining = Ir.Func.static_counts f in
  Alcotest.(check int) "two remain" 2 remaining

let test_compile_time_fold_guard () =
  (* a cond-check whose guard folds to false disappears; to true becomes
     a plain check *)
  let prog, _ = ctx_of "program t\ninteger a(1:10), n\nn = 5\na(n) = 1\nend" in
  let f = Ir.Program.main_func (Ir.Transform.copy_program prog) in
  let m =
    match Ir.Func.all_check_metas f with
    | m :: _ -> m
    | [] -> Alcotest.fail "no checks"
  in
  let b = Ir.Func.block f f.Ir.Func.entry in
  b.instrs <-
    b.instrs
    @ [
        Cond_check (Cbool false, m);
        Cond_check (Cbool true, m);
        Cond_check (Ebin (Le, Cint 1, Cint 2), m);
      ];
  Core.Eliminate.compile_time_checks f (Checkctx.counts ());
  let plain, conds =
    List.fold_left
      (fun (p, c) i ->
        match i with
        | Check _ -> (p + 1, c)
        | Cond_check _ -> (p, c + 1)
        | _ -> (p, c))
      (0, 0) b.instrs
  in
  (* original 2 checks + 2 guards folded to true = 4 plain, 0 cond *)
  Alcotest.(check int) "plain checks" 4 plain;
  Alcotest.(check int) "cond checks left" 0 conds

let test_strengthen_stats_on_fig1 () =
  let prog, _ =
    ctx_of "program t\ninteger a(5:10), n\nn = 3\na(2*n) = 0\na(2*n - 1) = 1\nprint n\nend"
  in
  let f = Ir.Program.main_func (Ir.Transform.copy_program prog) in
  let ctx = ctx_of_func f in
  let st = Checkctx.counts () in
  Core.Strengthen.run ctx st;
  Alcotest.(check int) "one check strengthened" 1 st.Checkctx.strengthened

(* --- a table that holds deleted checks ---------------------------------- *)

(* Does [stale]'s table, which still holds the checks the passes so far
   deleted, give the same availability and anticipatability on the
   present checks, at every reachable block, as a fresh table of only
   them, in as many block visits? Answers whether it held stale ids. *)
let same_as_fresh label ~oracle (stale : Checkctx.t) =
  let f = stale.Checkctx.func in
  let fresh =
    Checkctx.create ~mode:Universe.All_implications ~oracle
      ~pool:(Intern.create ()) f
  in
  let checks ctx s =
    List.sort Check.compare
      (List.map (Intern.check (Universe.pool ctx.Checkctx.table)) (Bitset.elements s))
  in
  let solve ctx analysis =
    let w0 = Work.now () in
    let r = analysis ctx in
    (r, (Work.since w0).Work.visits)
  in
  ignore (Checkctx.universe stale);
  ignore (Checkctx.universe fresh);
  let reach = Ir.Func.reachable f in
  List.iter
    (fun (what, analysis) ->
      let rs, vs = solve stale analysis and rf, vf = solve fresh analysis in
      let label = Fmt.str "%s %s %s" label f.Ir.Func.fname what in
      Alcotest.(check int) (label ^ " visits") vf vs;
      Array.iteri
        (fun b live ->
          if live then
            List.iter
              (fun (side, (s : Nascent_analysis.Dataflow.result -> Bitset.t array)) ->
                if checks stale (s rs).(b) <> checks fresh (s rf).(b) then
                  Alcotest.failf "%s: block %d %s differs" label b side)
              [ ("in", fun r -> r.in_); ("out", fun r -> r.out) ])
        reach)
    [
      ("availability", Analyses.availability); ("anticipatability", Analyses.anticipatability);
    ];
  Intern.size (Universe.pool stale.Checkctx.table) > Bitset.cardinal stale.Checkctx.present

let test_stale_table_matches_fresh () =
  let stale = ref 0 in
  List.iter
    (fun (bm : Nascent_benchmarks.Suite.benchmark) ->
      let ir = ir_of_source bm.source in
      List.iter
        (fun oracle ->
          List.iter
            (fun scheme ->
              let prog = Ir.Transform.copy_program ir in
              List.iter
                (fun f ->
                  let ctx =
                    Checkctx.create ~mode:Universe.All_implications ~oracle
                      ~pool:(Intern.create ()) f
                  in
                  ignore (Checkctx.universe ctx);
                  let label =
                    Fmt.str "%s %s%s" bm.name (Config.scheme_name scheme)
                      (if oracle then "+O" else "")
                  in
                  List.iter
                    (fun (_, _, run) ->
                      Checkctx.refresh ctx;
                      run ctx (Checkctx.counts ()))
                    (Core.Optimizer.placement scheme);
                  if same_as_fresh (label ^ " placed") ~oracle ctx then incr stale;
                  Checkctx.refresh ctx;
                  Core.Eliminate.redundancy_elimination ctx (Checkctx.counts ());
                  if same_as_fresh (label ^ " eliminated") ~oracle ctx then incr stale)
                (Ir.Program.funcs_sorted prog))
            Config.[ NI; CS; SE; LNI; LI; LLS; ALL; MCM ])
        [ false; true ])
    Nascent_benchmarks.Suite.all;
  Alcotest.(check bool) (Fmt.str "tables with deleted checks (%d)" !stale) true (!stale > 0)

(* --- interpreter arithmetic edges ------------------------------------- *)

let test_interp_negative_mod () =
  let o = run_source "program t\ninteger x\nx = mod(-7, 3)\nprint x\nend" in
  check_no_trap o;
  (* OCaml/Fortran truncation: mod(-7,3) = -1 *)
  Alcotest.(check (list int)) "mod" [ -1 ] (printed_ints o)

let test_interp_integer_division_truncates () =
  let o = run_source "program t\ninteger x, y\nx = (0 - 7) / 2\ny = 7 / 2\nprint x\nprint y\nend" in
  check_no_trap o;
  Alcotest.(check (list int)) "division" [ -3; 3 ] (printed_ints o)

let test_interp_deep_call_chain () =
  let o =
    run_source
      "program t\n\
       integer n\n\
       n = 3\n\
       call f1(n)\n\
       end\n\
       subroutine f1(k)\n\
       integer k\n\
       call f2(k + 1)\n\
       end\n\
       subroutine f2(k)\n\
       integer k\n\
       print k\n\
       end"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "chained" [ 4 ] (printed_ints o)

let test_interp_zero_size_array_always_traps () =
  let o = run_source "program t\ninteger a(5:4), n\nn = 5\na(n) = 1\nend" in
  trap_expected o

let suite =
  [
    tc "universe built from function" test_universe_built_from_function;
    tc "availability flows forward" test_availability_flows_forward;
    tc "availability killed by assignment" test_availability_killed_by_assignment;
    tc "anticipatability at entry" test_anticipatability_at_entry;
    tc "eliminate counts" test_eliminate_counts;
    tc "compile-time guard folding" test_compile_time_fold_guard;
    tc "strengthen stats on fig1" test_strengthen_stats_on_fig1;
    tc "a table with deleted checks reads as a fresh one" test_stale_table_matches_fresh;
    tc "interp: negative mod" test_interp_negative_mod;
    tc "interp: integer division truncates" test_interp_integer_division_truncates;
    tc "interp: deep call chain" test_interp_deep_call_chain;
    tc "interp: zero-size array always traps" test_interp_zero_size_array_always_traps;
  ]
