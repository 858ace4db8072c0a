(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 4) on the 10-program MiniF suite, and
   times the optimizer configurations with Bechamel (one Test.make
   group per table).

   Table generation fans the (benchmark × config) matrix over the
   domain pool (NASCENT_JOBS, default: host core count) and serves
   repeated cells from the content-addressed cache; per-target cache
   hit/miss counts are reported after each table.

   Usage:
     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- table1     # just Table 1
     dune exec bench/main.exe -- table2 | table3 | figures | canon | bech
     dune exec bench/main.exe -- tables     # tables only, no Bechamel (CI mode)
     dune exec bench/main.exe -- check-determinism  # serial vs parallel vs warm cache + oracle differential
     dune exec bench/main.exe -- oracle-diff  # --oracle vs baseline observable-identity matrix
     dune exec bench/main.exe -- load       # open-loop RPS/latency ladder, 1 vs 3 shards + chaos
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
module Memo = Nascent_support.Memo
module Mclock = Nascent_support.Mclock

let chars = lazy (E.characterize_all ())

(* Per-target cache accounting: delta of the cell cache counters. *)
let with_cache_report what f =
  let b = E.cell_cache_stats () in
  f ();
  let a = E.cell_cache_stats () in
  Printf.printf "[cache] %s: %d hit(s), %d miss(es), jobs=%d\n%!" what
    (a.Memo.hits - b.Memo.hits)
    (a.Memo.misses - b.Memo.misses)
    (Pool.default_jobs ())

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
  with_cache_report "table2" @@ fun () ->
  let chars = Lazy.force chars in
  let tables = E.table2 chars in
  Report.table2 chars tables;
  incident_report "table2" tables

let run_table3 () =
  with_cache_report "table3" @@ fun () ->
  let chars = Lazy.force chars in
  let tables = E.table3 chars in
  Report.table3 chars tables;
  incident_report "table3" tables

let run_canon () = Report.canon (E.canon_ablation (Lazy.force chars))

let run_extensions () =
  with_cache_report "extensions" @@ fun () ->
  let chars = Lazy.force chars in
  let tables = E.extensions chars in
  Report.extensions chars tables;
  incident_report "extensions" tables

(* Table-only mode: everything except the Bechamel timers, for CI. *)
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

(* --- determinism gate: serial vs parallel vs warm cache --------------- *)

(* The full table suite minus timing columns: what must be invariant
   across pool sizes. Timings (range/compile seconds) legitimately
   differ between cold runs; everything else diverging means a pool or
   cache bug, so CI fails on it. *)
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
  Printf.printf "determinism gate: serial vs jobs=%d vs warm cache\n%!" par_jobs;
  E.reset_cell_cache ();
  Pool.set_default_jobs 1;
  let _, serial = full_suite () in
  let serial_misses = (E.cell_cache_stats ()).Memo.misses in
  E.reset_cell_cache ();
  Pool.set_default_jobs par_jobs;
  let _, parallel = full_suite () in
  let parallel_misses = (E.cell_cache_stats ()).Memo.misses in
  if structural serial <> structural parallel then begin
    Printf.eprintf "FAIL: parallel tables diverge from the serial run\n%!";
    exit 1
  end;
  (* Warm rerun: every cell must come from the cache (zero
     re-optimizations) and the rows must be byte-identical, timing
     columns included. *)
  let before = E.cell_cache_stats () in
  let _, warm = full_suite () in
  let after = E.cell_cache_stats () in
  if after.Memo.misses <> before.Memo.misses then begin
    Printf.eprintf "FAIL: warm cache rerun re-optimized %d cell(s)\n%!"
      (after.Memo.misses - before.Memo.misses);
    exit 1
  end;
  if warm <> parallel then begin
    Printf.eprintf "FAIL: warm cache rerun is not byte-identical\n%!";
    exit 1
  end;
  Printf.printf
    "determinism gate OK: %d serial cell(s) == %d parallel cell(s), warm rerun \
     byte-identical with 0 re-optimizations\n\
     %!"
    serial_misses parallel_misses;
  run_oracle_differential ()

(* --- load: open-loop generator over the sharded service ---------------- *)

let load_json_path = "BENCH_load.json"

type load_rung = {
  offered_rps : float;
  achieved_rps : float;
  sent : int;
  ok : int;
  errors : int;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  elapsed_s : float;
}

(* Fault-tolerant sharded serving, quantified on the wire. An
   open-loop generator — arrivals on a fixed schedule regardless of
   completions, the honest way to load a service, since a closed loop
   self-throttles into flattering latencies — drives real nascentd
   processes over the framed TCP transport with pipelined
   connections: one shard direct, then three shards behind the
   consistent-hash router. Each rate rung reports p50/p99/p999
   (completion minus scheduled arrival, so queueing and schedule slip
   count); the highest rung with zero errors and >= 90% of the offered
   rate completed is the recorded max sustained RPS. A final chaos
   pass kills -9 one shard at load mid-run and demands the batch
   still complete with zero failed requests — health ejection plus
   ring failover, measured rather than asserted.

   NASCENT_LOAD_QUICK=1 shrinks the ladder for CI. *)
let run_load () =
  let module Json = Nascent_support.Json in
  let module Client = Nascent_support.Server.Client in
  let quick = Sys.getenv_opt "NASCENT_LOAD_QUICK" <> None in
  let bindir =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin"
  in
  let nascentd = Filename.concat bindir "nascentd.exe" in
  let tmp = Filename.get_temp_dir_name () in
  let mypid = Unix.getpid () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let children = ref [] in
  let spawn argv =
    let pid =
      Unix.create_process nascentd
        (Array.of_list (nascentd :: argv))
        Unix.stdin devnull devnull
    in
    children := pid :: !children;
    pid
  in
  let kill_all () =
    List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) !children;
    List.iter
      (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !children;
    children := []
  in
  let wait_socket path =
    let rec go n =
      if n = 0 then failwith ("bench load: socket never appeared: " ^ path)
      else if not (Sys.file_exists path) then begin
        Unix.sleepf 0.05;
        go (n - 1)
      end
    in
    go 400
  in
  let tcp_port_of path =
    match
      Client.request_retry ~seed:1 path (Json.Obj [ ("op", Json.Str "status") ])
    with
    | Error e -> failwith ("bench load: status: " ^ e)
    | Ok st -> (
        match Json.int_member "tcp_port" st with
        | Some p -> p
        | None -> failwith "bench load: no tcp_port in status")
  in
  (* The request stream cycles the (benchmark x scheme) matrix, so the
     leading edge of every run is all cold-cache misses, each compiled
     on the live path at its requested scheme. *)
  let cells =
    List.concat_map
      (fun b -> List.map (fun s -> (b.B.name, s)) [ "NI"; "LLS"; "CS"; "ALL" ])
      B.all
    |> Array.of_list
  in
  let request_of i =
    let b, s = cells.(i mod Array.length cells) in
    Json.Obj
      [
        ("id", Json.Str (Printf.sprintf "load-%d" i));
        ("op", Json.Str "compile");
        ("benchmark", Json.Str b);
        ("scheme", Json.Str s);
      ]
  in
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else
      let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) idx))
  in
  (* One open-loop phase: [workers] pipelined connections share the
     arrival schedule round-robin; each worker's receiver thread
     matches completions to frame tags while the sender holds the
     schedule. Latency is completion minus scheduled (not actual)
     send time, so a generator that falls behind cannot hide service
     queueing. *)
  let run_phase ~addr ~rate ~duration ~workers ~kill_at =
    let reqs_total = max workers (int_of_float (rate *. duration)) in
    let t0 = Mclock.counter () in
    (match kill_at with
    | None -> ()
    | Some (after_s, pid) ->
        ignore
          (Thread.create
             (fun () ->
               Thread.delay after_s;
               try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
             ()));
    let worker w =
      (* this worker's slice of the schedule: slots w, w+workers, ... *)
      let n_w = if reqs_total <= w then 0 else ((reqs_total - 1 - w) / workers) + 1 in
      let conn = Client.connect_addr ~recv_timeout_s:60.0 addr in
      let lock = Mutex.create () in
      let pending = Hashtbl.create 64 in
      let lats = ref [] in
      let okc = ref 0 and errc = ref 0 in
      let sent = ref 0 and received = ref 0 in
      (* The receiver owns a fixed quota — n_w completions — so there
         is no handoff race with the sender: blocking in pipeline_recv
         with the quota unmet is just waiting for a response that is
         owed (or for the sender to put it on the wire). *)
      let receiver =
        Thread.create
          (fun () ->
            let rec loop () =
              let more =
                Mutex.lock lock;
                let m = !received < n_w in
                Mutex.unlock lock;
                m
              in
              if more then
                match Client.pipeline_recv conn with
                | Ok (Some (fid, resp)) ->
                    let now = Mclock.elapsed_s t0 in
                    Mutex.lock lock;
                    incr received;
                    (match Hashtbl.find_opt pending fid with
                    | Some sched ->
                        Hashtbl.remove pending fid;
                        lats := (now -. sched) :: !lats
                    | None -> ());
                    if Json.str_member "status" resp = Some "error" then incr errc
                    else incr okc;
                    Mutex.unlock lock;
                    loop ()
                | Ok None | Error _ ->
                    Mutex.lock lock;
                    errc := !errc + (n_w - !received);
                    received := n_w;
                    Mutex.unlock lock
                | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) ->
                    Mutex.lock lock;
                    errc := !errc + (n_w - !received);
                    received := n_w;
                    Mutex.unlock lock
            in
            loop ())
          ()
      in
      let i = ref w in
      while !i < reqs_total do
        let sched = float_of_int !i /. rate in
        let now = Mclock.elapsed_s t0 in
        if sched > now then Thread.delay (sched -. now);
        (* register the tag under the lock before the receiver can
           possibly see its response *)
        Mutex.lock lock;
        (match Client.pipeline_send conn (request_of !i) with
        | fid ->
            incr sent;
            Hashtbl.replace pending fid sched
        | exception _ ->
            (* a dead connection still consumes its quota slot *)
            incr sent;
            incr received;
            incr errc);
        Mutex.unlock lock;
        i := !i + workers
      done;
      Thread.join receiver;
      (try Client.close conn with _ -> ());
      (!sent, !okc, !errc, !lats)
    in
    let out = Array.make workers (0, 0, 0, []) in
    let threads =
      List.init workers (fun w ->
          Thread.create (fun () -> out.(w) <- worker w) ())
    in
    List.iter Thread.join threads;
    let elapsed = Mclock.elapsed_s t0 in
    let sent = Array.fold_left (fun a (s, _, _, _) -> a + s) 0 out in
    let ok = Array.fold_left (fun a (_, o, _, _) -> a + o) 0 out in
    let errors = Array.fold_left (fun a (_, _, e, _) -> a + e) 0 out in
    let lats =
      Array.fold_left (fun a (_, _, _, l) -> List.rev_append l a) [] out
      |> Array.of_list
    in
    Array.sort compare lats;
    {
      offered_rps = rate;
      achieved_rps = (if elapsed > 0.0 then float_of_int ok /. elapsed else 0.0);
      sent;
      ok;
      errors;
      p50_ms = 1000.0 *. percentile lats 0.50;
      p99_ms = 1000.0 *. percentile lats 0.99;
      p999_ms = 1000.0 *. percentile lats 0.999;
      elapsed_s = elapsed;
    }
  in
  let rung_json r =
    Json.Obj
      [
        ("offered_rps", Json.Float r.offered_rps);
        ("achieved_rps", Json.Float r.achieved_rps);
        ("sent", Json.Int r.sent);
        ("ok", Json.Int r.ok);
        ("errors", Json.Int r.errors);
        ("p50_ms", Json.Float r.p50_ms);
        ("p99_ms", Json.Float r.p99_ms);
        ("p999_ms", Json.Float r.p999_ms);
        ("elapsed_s", Json.Float r.elapsed_s);
      ]
  in
  let sustained r = r.errors = 0 && r.achieved_rps >= 0.9 *. r.offered_rps in
  let rates = if quick then [ 40.0; 80.0 ] else [ 50.0; 100.0; 200.0; 400.0 ] in
  let duration = if quick then 1.0 else 3.0 in
  let workers = if quick then 4 else 8 in
  let ladder ~addr =
    let rungs = List.map (fun r -> run_phase ~addr ~rate:r ~duration ~workers ~kill_at:None) rates in
    let max_sustained =
      List.fold_left
        (fun acc r -> if sustained r then Float.max acc r.achieved_rps else acc)
        0.0 rungs
    in
    (rungs, max_sustained)
  in
  let report label (rungs, max_sustained) =
    Printf.printf "\n%s:\n" label;
    List.iter
      (fun r ->
        Printf.printf
          "  offered %6.0f rps: achieved %7.1f rps, %d/%d ok, p50 %.1f ms, p99 \
           %.1f ms, p999 %.1f ms%s\n\
           %!"
          r.offered_rps r.achieved_rps r.ok r.sent r.p50_ms r.p99_ms
          r.p999_ms
          (if sustained r then "" else "  [not sustained]"))
      rungs;
    Printf.printf "  max sustained: %.1f rps\n%!" max_sustained
  in
  Fun.protect ~finally:(fun () -> kill_all (); Unix.close devnull) @@ fun () ->
  (* --- one shard, direct over TCP ----------------------------------- *)
  let s1_sock = Filename.concat tmp (Printf.sprintf "nload-one-%d.sock" mypid) in
  ignore
    (spawn [ "--socket"; s1_sock; "--tcp"; "127.0.0.1:0"; "-j"; "2" ]);
  wait_socket s1_sock;
  let one_addr = Printf.sprintf "127.0.0.1:%d" (tcp_port_of s1_sock) in
  let one = ladder ~addr:(Client.parse_address one_addr) in
  report "1 shard (direct TCP)" one;
  kill_all ();
  (* --- three shards behind the router -------------------------------- *)
  let shard_socks =
    List.init 3 (fun i ->
        Filename.concat tmp (Printf.sprintf "nload-s%d-%d.sock" i mypid))
  in
  let shard_pids =
    List.mapi
      (fun i sock ->
        spawn
          [ "--socket"; sock; "-j"; "1"; "--shard-name"; Printf.sprintf "s%d" i ])
      shard_socks
  in
  List.iter wait_socket shard_socks;
  let r_sock = Filename.concat tmp (Printf.sprintf "nload-r-%d.sock" mypid) in
  ignore
    (spawn
       ([ "--socket"; r_sock; "--tcp"; "127.0.0.1:0"; "--router" ]
       @ List.concat
           (List.mapi
              (fun i sock -> [ "--shard"; Printf.sprintf "s%d=%s" i sock ])
              shard_socks)));
  wait_socket r_sock;
  let router_addr = Client.parse_address (Printf.sprintf "127.0.0.1:%d" (tcp_port_of r_sock)) in
  let three = ladder ~addr:router_addr in
  report "3 shards (router, TCP)" three;
  (* --- chaos: kill -9 one shard at load ------------------------------ *)
  let chaos_rate = if quick then 40.0 else 100.0 in
  let chaos_duration = if quick then 2.0 else 6.0 in
  let victim = List.nth shard_pids 1 in
  let chaos =
    run_phase ~addr:router_addr ~rate:chaos_rate ~duration:chaos_duration
      ~workers ~kill_at:(Some (chaos_duration /. 2.0, victim))
  in
  Printf.printf
    "\nchaos (kill -9 shard s1 at %.1fs of %.1fs, %.0f rps): %d/%d ok, %d \
     error(s), p99 %.1f ms — %s\n\
     %!"
    (chaos_duration /. 2.0) chaos_duration chaos_rate chaos.ok chaos.sent
    chaos.errors chaos.p99_ms
    (if chaos.errors = 0 then "zero failed requests" else "FAILURES");
  let json =
    Json.Obj
      [
        ("quick", Json.Bool quick);
        ("workers", Json.Int workers);
        ("duration_s", Json.Float duration);
        ( "one_shard",
          Json.Obj
            [
              ("rungs", Json.List (List.map rung_json (fst one)));
              ("max_sustained_rps", Json.Float (snd one));
            ] );
        ( "three_shards",
          Json.Obj
            [
              ("rungs", Json.List (List.map rung_json (fst three)));
              ("max_sustained_rps", Json.Float (snd three));
            ] );
        ( "chaos",
          Json.Obj
            [
              ("killed_shard", Json.Str "s1");
              ("kill_after_s", Json.Float (chaos_duration /. 2.0));
              ("rate_rps", Json.Float chaos_rate);
              ("rung", rung_json chaos);
            ] );
      ]
  in
  Nascent_support.Guard.write_atomic ~path:load_json_path
    (Nascent_support.Json.to_string json ^ "\n");
  Printf.printf "wrote %s\n%!" load_json_path;
  if chaos.errors > 0 then begin
    prerr_endline "FAIL: chaos run had failed client requests";
    exit 1
  end

(* --- Bechamel: one Test.make per table ------------------------------- *)

let bech_tests () =
  let open Bechamel in
  let sources = List.map (fun b -> b.B.source) B.all in
  let irs () = List.map Nascent_ir.Lower.of_source sources in
  (* Table 1's measurement pipeline: characterize the suite
     (lower + loop analysis + static counts; dynamic runs excluded to
     keep the timer on compiler-side work). *)
  let t_table1 =
    Test.make ~name:"table1-characterize"
      (Staged.stage (fun () ->
           List.iter
             (fun ir ->
               Nascent_ir.Program.iter_funcs
                 (fun f -> ignore (Nascent_analysis.Loops.compute f))
                 ir;
               ignore (Nascent_ir.Program.static_counts ir))
             (irs ())))
  in
  (* Table 2's dominant cost: one full optimizer run per scheme (PRX). *)
  let t_table2 =
    Test.make ~name:"table2-optimize-all-schemes"
      (Staged.stage (fun () ->
           let irs = irs () in
           List.iter
             (fun scheme ->
               List.iter
                 (fun ir ->
                   ignore
                     (Nascent_core.Optimizer.optimize
                        ~config:(Config.make ~scheme ())
                        ir))
                 irs)
             Config.all_schemes))
  in
  (* Table 3's extra cost: the primed variants (implications off). *)
  let t_table3 =
    Test.make ~name:"table3-optimize-impl-ablation"
      (Staged.stage (fun () ->
           let irs = irs () in
           List.iter
             (fun (scheme, impl) ->
               List.iter
                 (fun ir ->
                   ignore
                     (Nascent_core.Optimizer.optimize
                        ~config:(Config.make ~scheme ~impl ())
                        ir))
                 irs)
             [
               (Config.NI, Nascent_checks.Universe.No_implications);
               (Config.SE, Nascent_checks.Universe.No_implications);
               (Config.LLS, Nascent_checks.Universe.Cross_family_only);
             ]))
  in
  [ t_table1; t_table2; t_table3 ]

let run_bech () =
  let open Bechamel in
  print_endline "";
  print_endline "Bechamel timers (one Test.make per table):";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all
             (Analyze.ols ~bootstrap:0 ~r_square:false
                ~predictors:[| Measure.run |])
             Toolkit.Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-36s %12.3f ms/run\n%!" name (est /. 1e6)
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        results)
    (bech_tests ())

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
    | "load" -> run_load ()
    | "bech" -> run_bech ()
    | "all" ->
        run_tables ();
        Figures.all ();
        run_bech ()
    | other ->
        Printf.eprintf "unknown target %s\n" other;
        exit 1
  in
  List.iter run what
