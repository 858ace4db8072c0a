(* compile-matrix: the compiler's CPU cost with nothing else on the path.
   10 programs x 8 schemes x PRX/INX = 160 plain cells, plus 20
   ALL+oracle cells that get their own metric so oracle-elim and the
   certificate do not drown the dataflow passes. Each round compiles
   every cell once, in a fresh seeded order; a cell's cost is its
   fastest round, as a program's is in exec-suite: in one set of ten
   runs on a shared 2-vCPU host, the figures built on per-cell medians
   spread 0.07-0.12 and those built on minima 0.02-0.03. The end-to-end
   figure is the mean CPU time of a compile; the wall-clock percentiles
   are per-layer, and the layer split of traced runs takes medians.
   Set-up is one warm-up pass over the matrix.

   Traced runs alternate untraced and traced rounds: the traced ones
   give the layer split, the pair gives the tracing overhead. After each
   traced pass they also time two things off the compile path: the
   optimizer with the verifier off (the verifier's price) and
   Validate.program on the plain cells (the price of certifying every
   compile). *)

module B = Nascent_benchmarks.Suite
module Config = Nascent_core.Config
module Optimizer = Nascent_core.Optimizer
module Mclock = Nascent_support.Mclock

let cells () =
  let cell prog scheme kind oracle = { Compile.prog; scheme; kind; oracle } in
  let plain =
    List.concat_map
      (fun prog ->
        List.concat_map
          (fun scheme -> List.map (fun kind -> cell prog scheme kind false) Compile.kinds)
          Compile.schemes)
      B.all
  in
  let oracle =
    List.concat_map
      (fun prog -> List.map (fun k -> cell prog Config.ALL k true) Compile.kinds)
      B.all
  in
  Array.of_list (plain @ oracle)

(* A cell's samples, one per round, by series name. *)
let add tbl name v =
  Hashtbl.replace tbl name (v :: Option.value ~default:[] (Hashtbl.find_opt tbl name))

let series tbl name = Option.value ~default:[] (Hashtbl.find_opt tbl name)
let oracle_only p = p = "oracle-elim" || p = "validate"

let run (w : Work.t) out =
  let cells = cells () in
  let n = Array.length cells in
  let s = Array.init n (fun _ -> Hashtbl.create 16) in
  let first_counts = Array.make n None in
  let incidents = ref 0 in
  (* Every compile is checked: no incident, a certificate where asked,
     and the same static check counts in every round. *)
  let compile i =
    let c = cells.(i) in
    let l = Compile.run ~src:c.Compile.prog.B.source c in
    incidents := !incidents + List.length l.Compile.stats.Optimizer.incidents;
    let counts = Compile.static_checks l in
    Outcome.check out
      (match (Compile.verdict c l, first_counts.(i)) with
      | (Error _ as e), _ -> e
      | Ok (), None ->
          first_counts.(i) <- Some counts;
          Ok ()
      | Ok (), Some c0 when c0 = counts -> Ok ()
      | Ok (), Some _ ->
          Error (Compile.label c ^ ": static check counts changed between rounds"));
    l
  in
  let setup_s, () =
    Work.repeat_setup (fun () ->
        for i = 0 to n - 1 do
          ignore (compile i)
        done)
  in
  (* The timed pass keeps nothing alive that the untraced one does not,
     so the off-path work recompiles its inputs. *)
  let traced_pass order =
    Array.iter
      (fun i ->
        let l = compile i in
        let x = s.(i) in
        add x "traced" l.Compile.total_s;
        add x "analyze" l.Compile.analyze_s;
        add x "lower" l.Compile.lower_s;
        add x "optimize" l.Compile.optimize_s;
        add x "alloc" l.Compile.alloc_words;
        List.iter (fun p -> add x ("pass." ^ p) (Compile.pass_s l p)) Compile.pass_names)
      order;
    Array.iter
      (fun i ->
        let c = cells.(i) in
        if not c.Compile.oracle then begin
          let l = Spans.without (fun () -> Compile.run ~src:c.Compile.prog.B.source c) in
          let t = Mclock.counter () in
          Spans.with_span ~cat:"ir" "ir.verify-off" (fun () ->
              ignore (Optimizer.optimize ~config:(Compile.config ~verify:false c) l.Compile.ir));
          add s.(i) "verify" (l.Compile.optimize_s -. Mclock.elapsed_s t);
          let t = Mclock.counter () in
          Spans.with_span ~cat:"ir" "ir.validate" (fun () ->
              ignore
                (Nascent_ir.Validate.program ~original:l.Compile.ir ~optimized:l.Compile.opt));
          add s.(i) "validate" (Mclock.elapsed_s t)
        end)
      order
  in
  let rounds =
    Work.rounds w (fun r ->
        let order = Work.shuffle w.Work.rng (Array.init n Fun.id) in
        if w.Work.traced && r mod 2 = 1 then begin
          Spans.enabled := true;
          Fun.protect ~finally:(fun () -> Spans.enabled := false) (fun () -> traced_pass order)
        end
        else
          Array.iter
            (fun i ->
              let l = compile i in
              add s.(i) "total" l.Compile.total_s;
              add s.(i) "cpu" l.Compile.cpu_s)
            order)
  in
  Printf.eprintf "compile-matrix: %d cells x %d rounds\n%!" n rounds;
  let all = List.init n Fun.id in
  let plain = List.filter (fun i -> not cells.(i).Compile.oracle) all in
  let oracle = List.filter (fun i -> cells.(i).Compile.oracle) all in
  let med name i = Stat.median (series s.(i) name) in
  let best name i = Stat.min_list (series s.(i) name) in
  let over idx name = List.map (med name) idx in
  let mean_over idx name = Stat.mean (over idx name) in
  let ms x = 1000.0 *. x in
  let metric = Outcome.metric out in
  let checks_left =
    let before, after =
      List.fold_left
        (fun (b, a) i ->
          match first_counts.(i) with Some (cb, ca) -> (b + cb, a + ca) | None -> (b, a))
        (0, 0) plain
    in
    100.0 *. float_of_int after /. float_of_int (max 1 before)
  in
  let plain_ms = List.map (fun i -> ms (best "total" i)) plain in
  if not w.Work.traced then begin
    metric "setup_s" setup_s;
    metric "cpu_ms_per_op" (ms (Stat.mean (List.map (best "cpu") all)));
    metric "checks_left_pct" checks_left;
    metric "rss_mb" (Daemon.vmhwm_mb 0)
  end
  else begin
    metric "p50_ms" (Stat.pct plain_ms 0.5);
    metric "p90_ms" (Stat.pct plain_ms 0.9);
    metric "ops_per_s" (float_of_int n /. Stat.sum (List.map (best "total") all));
    let pass p = ms (mean_over (if oracle_only p then oracle else plain) ("pass." ^ p)) in
    let optimize_ms = ms (mean_over plain "optimize") in
    metric "frontend.analyze_us" (1e6 *. mean_over plain "analyze");
    metric "ir.lower_us" (1e6 *. mean_over plain "lower");
    metric "ir.verify_ms" (ms (mean_over plain "verify"));
    metric "ir.validate_ms" (ms (mean_over plain "validate"));
    metric "core.optimize_ms" optimize_ms;
    List.iter (fun p -> metric ("core.pass." ^ p ^ "_ms") (pass p)) Compile.pass_names;
    let plain_passes = List.filter (fun p -> not (oracle_only p)) Compile.pass_names in
    metric "core.unattributed_ms" (optimize_ms -. Stat.sum (List.map pass plain_passes));
    metric "core.alloc_mwords" (mean_over plain "alloc" /. 1e6);
    metric "core.static_checks_left_pct" checks_left;
    metric "core.incidents" (float_of_int !incidents);
    metric "compile.oracle_ms_p50" (Stat.pct (List.map ms (over oracle "traced")) 0.5);
    let untraced = Stat.pct plain_ms 0.5 in
    let traced = Stat.pct (List.map (fun i -> ms (best "traced" i)) plain) 0.5 in
    metric "trace.overhead_pct" (100.0 *. (traced -. untraced) /. untraced);
    metric "p99_ms" (Stat.pct plain_ms 0.99);
    let layers i = med "analyze" i +. med "lower" i +. med "optimize" i in
    metric "trace.layer_sum_pct"
      (100.0 *. Stat.sum (List.map layers plain) /. Stat.sum (over plain "traced"))
  end
