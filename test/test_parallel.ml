(* The parallel experiment engine: Pool semantics, the Memo cache, and
   the determinism contract of the table harness.

   The load-bearing property is the differential one: the experiment
   tables must be STRUCTURALLY IDENTICAL whether computed serially
   (jobs=1) or on a pool (jobs=4). bench/main.exe check-determinism
   runs the same gate over the full suite in CI; this test pins it on
   a 3-benchmark subset so `dune runtest` catches pool bugs without
   CI. *)

module Pool = Nascent_support.Pool
module Memo = Nascent_support.Memo
module E = Nascent_harness.Experiments
module B = Nascent_benchmarks.Suite
module Config = Nascent_core.Config

let with_pool jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- Pool: ordering, clamping, iteration ------------------------------ *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  with_pool 4 @@ fun p ->
  Alcotest.(check (list int))
    "same as List.map" (List.map (fun x -> x * x) xs)
    (Pool.parallel_map p (fun x -> x * x) xs)

let test_jobs_clamped () =
  with_pool 0 (fun p -> Alcotest.(check int) "low clamp" 1 (Pool.jobs p));
  with_pool 1000 (fun p -> Alcotest.(check int) "high clamp" 64 (Pool.jobs p))

let test_serial_fallback () =
  with_pool 1 @@ fun p ->
  Alcotest.(check (list int))
    "jobs=1 is List.map" [ 2; 4; 6 ]
    (Pool.parallel_map p (fun x -> 2 * x) [ 1; 2; 3 ])

let test_iter_visits_all () =
  let sum = Atomic.make 0 in
  with_pool 4 @@ fun p ->
  Pool.parallel_iter p (fun x -> ignore (Atomic.fetch_and_add sum x)) (List.init 50 succ);
  Alcotest.(check int) "sum 1..50" 1275 (Atomic.get sum)

(* The caller drains its own batch, so a worker may itself submit a
   batch to the same pool without deadlocking. *)
let test_nested_map_no_deadlock () =
  with_pool 3 @@ fun p ->
  let outer =
    Pool.parallel_map p
      (fun i -> Pool.parallel_map p (fun j -> (10 * i) + j) [ 1; 2; 3 ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list (list int)))
    "nested result"
    (List.map (fun i -> List.map (fun j -> (10 * i) + j) [ 1; 2; 3 ]) [ 1; 2; 3; 4 ])
    outer

(* --- Pool ≡ List.map, exceptions included (qcheck) --------------------- *)

exception Boom of int

(* Observable behaviour of a map: its results, or the exception it
   raises. [f] raises on x ≡ 3 (mod 7); List.map raises for the FIRST
   such element in list order, and parallel_map must agree no matter
   which domain hits one first. *)
let observe map xs =
  let f x = if x mod 7 = 3 then raise (Boom x) else (2 * x) + 1 in
  match map f xs with ys -> Ok ys | exception Boom v -> Error v

let prop_map_equiv_list_map =
  QCheck.Test.make ~name:"parallel_map ≡ List.map (ordering + exceptions)"
    ~count:30
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 0 40) small_signed_int))
    (fun (jobs, xs) ->
      with_pool jobs @@ fun p ->
      observe List.map xs = observe (Pool.parallel_map p) xs)

(* --- Memo: counters, key discipline ------------------------ *)

let test_memo_hit_miss () =
  let m : int Memo.t = Memo.create () in
  let k = Memo.key [ "a"; "b" ] in
  Alcotest.(check int) "miss computes" 41 (Memo.find_or_compute m ~key:k (fun () -> 41));
  Alcotest.(check int) "hit replays" 41
    (Memo.find_or_compute m ~key:k (fun () -> Alcotest.fail "recomputed on hit"));
  let s = Memo.stats m in
  Alcotest.(check int) "misses" 1 s.Memo.misses;
  Alcotest.(check int) "hits" 1 s.Memo.hits

let test_memo_key_injective_on_structure () =
  (* The component list, not its concatenation, is what is digested:
     ["ab"] and ["a"; "b"] must not collide. *)
  Alcotest.(check bool) "split differs" true (Memo.key [ "ab" ] <> Memo.key [ "a"; "b" ]);
  Alcotest.(check bool) "order matters" true (Memo.key [ "a"; "b" ] <> Memo.key [ "b"; "a" ])

(* A daemon fed unique sources must not keep every result: the table
   holds two generations, and what is still asked for stays. *)
let test_memo_bounded () =
  let m : int Memo.t = Memo.create () in
  let key i = Memo.key [ string_of_int i ] in
  for i = 0 to 39_999 do
    ignore (Memo.find_or_compute m ~key:(key i) (fun () -> i));
    (* key 0 is asked for again every 10,000 inserts, well within two
       generations: each old-generation hit moves it back *)
    if i mod 10_000 = 9_999 then
      Alcotest.(check int) "key 0 still cached" 0
        (Memo.find_or_compute m ~key:(key 0) (fun () -> -1))
  done;
  let s = Memo.stats m in
  Alcotest.(check int) "misses" 40_000 s.Memo.misses;
  if s.Memo.entries > 2 * Memo.generation || s.Memo.entries <= Memo.generation then
    Alcotest.failf "%d entries after 40,000 keys, expected (%d, %d]" s.Memo.entries
      Memo.generation (2 * Memo.generation);
  for i = 39_000 to 39_999 do
    Alcotest.(check int) "recent key hits" i
      (Memo.find_or_compute m ~key:(key i) (fun () -> -1))
  done;
  Alcotest.(check int) "oldest keys dropped" (-1)
    (Memo.find_or_compute m ~key:(key 1) (fun () -> -1))

let test_config_cache_key_covers_verify () =
  let base = Config.make ~scheme:Config.LLS () in
  Alcotest.(check bool) "verify is part of the key" true
    (Config.cache_key { base with Config.verify = true }
    <> Config.cache_key { base with Config.verify = false });
  Alcotest.(check bool) "kind is part of the key" true
    (Config.cache_key (Config.make ~scheme:Config.LLS ~kind:Config.PRX ())
    <> Config.cache_key (Config.make ~scheme:Config.LLS ~kind:Config.INX ()));
  Alcotest.(check bool) "fault is part of the key" true
    (Config.cache_key (Config.make ())
    <> Config.cache_key
         (Config.make
            ~fault:{ Nascent_ir.Mutate.cls = Nascent_ir.Mutate.Drop_check; seed = 1 }
            ()))

(* The wire form reads back every configuration it writes, over every
   axis value (a fault per mutation class, and none). *)
let test_config_json_round_trip () =
  let module U = Nascent_checks.Universe in
  let module M = Nascent_ir.Mutate in
  let vary set values cs = List.concat_map (fun c -> List.map (set c) values) cs in
  let configs =
    [ Config.default ]
    |> vary (fun c scheme -> { c with Config.scheme }) Config.extended_schemes
    |> vary (fun c kind -> { c with Config.kind }) [ Config.PRX; Config.INX ]
    |> vary
         (fun c impl -> { c with Config.impl })
         [ U.All_implications; U.Cross_family_only; U.No_implications ]
    |> vary (fun c verify -> { c with Config.verify }) [ false; true ]
    |> vary (fun c oracle -> { c with Config.oracle }) [ false; true ]
    |> vary
         (fun c fault -> { c with Config.fault })
         (None :: List.mapi (fun i cls -> Some { M.cls; seed = i }) M.all_classes)
  in
  Alcotest.(check int) "every configuration" (8 * 2 * 3 * 2 * 2 * 7) (List.length configs);
  List.iter
    (fun c ->
      match Config.of_json (Config.to_json c) with
      | Ok c' when c' = c -> ()
      | Ok c' -> Alcotest.failf "%a read back as %a" Config.pp c Config.pp c'
      | Error e -> Alcotest.failf "%a refused: %s" Config.pp c e)
    configs

(* --- the determinism contract of the table harness --------------------- *)

(* Same projection as bench/main.exe check-determinism: everything but
   the timing columns. *)
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

let test_tables_deterministic_across_jobs () =
  (* 3-benchmark subset of the full suite, PRX only: enough to exercise
     every scheme and the row-major fan-out, cheap enough for tier 1. *)
  let chars = List.map E.characterize (List.filteri (fun i _ -> i < 3) B.all) in
  let tables () = [ E.table2 ~kinds:[ Config.PRX ] chars; E.table3 ~kinds:[ Config.PRX ] chars; E.extensions chars ] in
  let saved = Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) @@ fun () ->
  Pool.set_default_jobs 1;
  let serial = tables () in
  Alcotest.(check bool) "serial run computed cells" true
    (List.exists (fun (_, rows) -> rows <> []) (List.concat serial));
  Pool.set_default_jobs 4;
  let parallel = tables () in
  Alcotest.(check bool) "jobs=1 and jobs=4 structurally equal" true
    (structural serial = structural parallel)

(* --- task_fuel watchdog on the serial path ----------------------------- *)

(* jobs=1 degrades to plain List.map, but the per-task watchdog must
   still be installed there: a pathological task has to fail with
   Fuel_exhausted on every pool size, not only when a worker domain
   runs it. *)
let test_task_fuel_serial_path () =
  with_pool 1 @@ fun p ->
  (match
     Pool.parallel_map ~task_fuel:100 p
       (fun x -> if x = 2 then Nascent_support.Guard.exhaust_ambient () else x)
       [ 1; 2; 3 ]
   with
  | _ -> Alcotest.fail "expected Fuel_exhausted on the serial path"
  | exception Nascent_support.Guard.Fuel_exhausted _ -> ());
  (* well-behaved tasks are unaffected by the watchdog *)
  Alcotest.(check (list int))
    "fueled serial map ≡ List.map" [ 2; 3; 4 ]
    (Pool.parallel_map ~task_fuel:1000 p (fun x -> x + 1) [ 1; 2; 3 ]);
  (* the budget is per task, not shared: each task may spend up to the
     full budget without starving its successors *)
  Alcotest.(check (list int))
    "budget renews per task" [ 90; 90; 90 ]
    (Pool.parallel_map ~task_fuel:100 p
       (fun _ ->
         for _ = 1 to 90 do
           Nascent_support.Guard.tick_ambient ()
         done;
         90)
       [ 1; 2; 3 ])

let suite =
  [
    Util.tc "map preserves order" test_map_preserves_order;
    Util.tc "jobs clamped" test_jobs_clamped;
    Util.tc "serial fallback" test_serial_fallback;
    Util.tc "iter visits all" test_iter_visits_all;
    Util.tc "nested map no deadlock" test_nested_map_no_deadlock;
    QCheck_alcotest.to_alcotest prop_map_equiv_list_map;
    Util.tc "memo hit/miss counters" test_memo_hit_miss;
    Util.tc "memo key injective on structure" test_memo_key_injective_on_structure;
    Util.tc "config cache key covers verify" test_config_cache_key_covers_verify;
    Util.tc "config JSON round trip" test_config_json_round_trip;
    Util.tc "task_fuel on the serial path" test_task_fuel_serial_path;
    Util.tc "tables deterministic across jobs" test_tables_deterministic_across_jobs;
    Util.tc "memo bounded by two generations" test_memo_bounded;
  ]
