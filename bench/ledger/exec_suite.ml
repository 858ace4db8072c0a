(* exec-suite: the paper's payoff. Set-up compiles each program at LLS
   and at ALL+oracle; then interleaved rounds run the naive, LLS and
   ALL+O code of every program through Run.run, in a seeded order. A
   program's time is its minimum over the rounds; the end-to-end figure
   is the mean CPU time of an LLS run. Only the interpreter runs, so
   compiler and serving changes must not move these numbers.

   Every run is checked against the committed golden output of the
   program's naive run (printed values, trap, error), and its dynamic
   check count must be the same in every round. *)

module B = Nascent_benchmarks.Suite
module Config = Nascent_core.Config
module Optimizer = Nascent_core.Optimizer
module Run = Nascent_interp.Run
module Value = Nascent_interp.Value
module Mclock = Nascent_support.Mclock

(* Indices into [compile]'s result. *)
let variants = [| "naive"; "LLS"; "ALL+O" |]

(* The golden form of an outcome: one line per printed value (reals in
   hexadecimal, so the comparison is exact), then the trap and the
   error. *)
let golden (o : Run.outcome) =
  let b = Buffer.create 256 in
  List.iter
    (function
      | Value.VInt i -> Printf.bprintf b "int %d\n" i
      | Value.VReal f -> Printf.bprintf b "real %h\n" f
      | Value.VBool v -> Printf.bprintf b "bool %b\n" v)
    o.Run.printed;
  Printf.bprintf b "trap %s\n" (Option.value ~default:"none" o.Run.trap);
  Printf.bprintf b "error %s\n" (Option.value ~default:"none" o.Run.error);
  Buffer.contents b

let golden_path dir prog = Filename.concat dir (prog.B.name ^ ".out")

(* Rewrite the golden files from the naive runs. Only for a changed
   suite program: the point of the files is that they do not follow the
   interpreter. *)
let lower prog =
  Nascent_ir.Lower.lower_program (snd (Nascent_frontend.Frontend.analyze_exn prog.B.source))

let write_expected dir =
  List.iter
    (fun prog ->
      let o = Run.run (lower prog) in
      Out_channel.with_open_bin (golden_path dir prog) (fun oc ->
          output_string oc (golden o)))
    B.all

let compile prog =
  let naive = lower prog in
  let opt config = fst (Optimizer.optimize ~config naive) in
  [|
    naive;
    opt (Config.make ~scheme:Config.LLS ());
    opt (Config.make ~scheme:Config.ALL ~oracle:true ());
  |]

let run (w : Work.t) out =
  let progs = Array.of_list B.all in
  let np = Array.length progs in
  let expected =
    Array.map
      (fun p ->
        try In_channel.with_open_bin (golden_path w.Work.expected p) In_channel.input_all
        with Sys_error e -> failwith ("missing golden output: " ^ e))
      progs
  in
  let setup_s, code = Work.repeat_setup (fun () -> Array.map compile progs) in
  let times = Array.make_matrix np 3 [] in
  let cpu = Array.make_matrix np 3 [] in
  let counts = Array.make_matrix np 3 None in
  let instrs = Array.make np 0 in
  let run_one p k =
    let what = progs.(p).B.name ^ " " ^ variants.(k) in
    let c = Cpu.self () in
    let t = Mclock.counter () in
    let o =
      Spans.with_span ~cat:"interp" ~args:[ ("run", Nascent_support.Json.Str what) ] "interp.run"
        (fun () -> Run.run code.(p).(k))
    in
    times.(p).(k) <- Mclock.elapsed_s t :: times.(p).(k);
    cpu.(p).(k) <- (Cpu.self () -. c) :: cpu.(p).(k);
    if k = 0 then instrs.(p) <- o.Run.instrs;
    Outcome.check out
      (match counts.(p).(k) with
      | _ when golden o <> expected.(p) -> Error (what ^ ": output differs from the golden run")
      | None ->
          counts.(p).(k) <- Some o.Run.checks;
          Ok ()
      | Some c when c = o.Run.checks -> Ok ()
      | Some _ -> Error (what ^ ": dynamic check count changed between rounds"))
  in
  Spans.enabled := w.Work.traced;
  let rounds =
    Fun.protect ~finally:(fun () -> Spans.enabled := false) @@ fun () ->
    Work.rounds w (fun _ ->
        Array.iter
          (fun p -> Array.iter (run_one p) (Work.shuffle w.Work.rng [| 0; 1; 2 |]))
          (Work.shuffle w.Work.rng (Array.init np Fun.id)))
  in
  let best p k = Stat.min_list times.(p).(k) in
  let ms x = 1000.0 *. x in
  let all = List.init np Fun.id in
  let lls = List.map (fun p -> ms (best p 1)) all in
  let dyn k = List.fold_left (fun a p -> a + Option.value ~default:0 counts.(p).(k)) 0 all in
  let metric = Outcome.metric out in
  if not w.Work.traced then begin
    metric "setup_s" setup_s;
    metric "cpu_ms_per_op" (ms (Stat.mean (List.map (fun p -> Stat.min_list cpu.(p).(1)) all)));
    metric "checks_left_pct" (100.0 *. float_of_int (dyn 1) /. float_of_int (max 1 (dyn 0)));
    metric "rss_mb" (Daemon.vmhwm_mb 0)
  end
  else begin
    metric "p50_ms" (Stat.pct lls 0.5);
    metric "p90_ms" (Stat.pct lls 0.9);
    metric "ops_per_s" (float_of_int np /. Stat.sum (List.map (fun p -> best p 1) all));
    List.iter
      (fun p ->
        let name = progs.(p).B.name in
        metric ("interp.naive_ms." ^ name) (ms (best p 0));
        metric ("interp.lls_ms." ^ name) (ms (best p 1));
        metric ("interp.speedup_lls." ^ name) (best p 0 /. best p 1))
      all;
    metric "interp.run_ms" (Stat.geomean lls);
    metric "interp.speedup_all_o" (Stat.geomean (List.map (fun p -> best p 0 /. best p 2) all));
    metric "interp.dyn_checks.naive" (float_of_int (dyn 0));
    metric "interp.dyn_checks.lls" (float_of_int (dyn 1));
    metric "interp.dyn_checks.all_o" (float_of_int (dyn 2));
    metric "interp.ns_per_instr"
      (1e9 *. Stat.sum (List.map (fun p -> best p 0) all)
      /. float_of_int (Array.fold_left ( + ) 0 instrs));
    metric "p99_ms" (Stat.pct lls 0.99)
  end;
  Printf.eprintf "exec-suite: %d programs x 3 variants x %d rounds\n%!" np rounds
