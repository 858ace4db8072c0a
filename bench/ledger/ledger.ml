(* The performance ledger: end-to-end and per-layer numbers for the
   optimizer, the interpreter and the compile service, from one command.

     ledger run --seed N [--workload W] [--seconds S] [--quick] [--trace FILE]
     ledger compare BASE NEW
     ledger expected DIR

   `run` measures each workload in a fresh child process (`ledger
   worker ...`), so heap, GC state and peak RSS never leak from one
   workload into the next. Untraced runs print the end-to-end metrics;
   `--trace FILE` is a separate run that prints the per-layer metrics
   and writes the spans as Chrome trace-event JSON. Either way the last
   line of stdout is one JSON object {correct, attempted, failed,
   metrics}. The seed only generates inputs: cell order, key draws and
   the comment tags that make sources unique. See README.md. *)

module Json = Nascent_support.Json

let workloads = [ "compile-matrix"; "exec-suite"; "serve-hit"; "serve-miss"; "serve-routed" ]

(* Measuring budgets when --seconds is not given: about 80 s in all. *)
let default_seconds = function
  | "compile-matrix" -> 10.0
  | "exec-suite" -> 9.0
  | "serve-hit" -> 22.0
  | _ -> 15.0

let usage () =
  prerr_string
    "usage: ledger run --seed N [--workload W] [--seconds S] [--quick] [--trace FILE]\n\
    \                  [--benchmark BENCHMARK.json] [--expected DIR]\n\
    \       ledger compare BASE NEW [--benchmark BENCHMARK.json]\n\
    \       ledger expected DIR\n";
  exit 2

(* "--key value" options and bare flags after the subcommand. *)
let parse_opts args =
  let rec go acc = function
    | [] -> List.rev acc
    | "--quick" :: rest -> go (("--quick", "") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | a :: _ ->
        Printf.eprintf "ledger: unexpected argument %s\n" a;
        usage ()
  in
  go [] args

let opt opts k = List.assoc_opt k opts
let opt_or opts k d = Option.value ~default:d (opt opts k)

let int_opt opts k =
  Option.map
    (fun v ->
      match int_of_string_opt v with
      | Some n -> n
      | None ->
          Printf.eprintf "ledger: %s wants an integer\n" k;
          exit 2)
    (opt opts k)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* --- worker: one workload in this process ----------------------------- *)

let worker name opts =
  let get k =
    match opt opts k with
    | Some v -> v
    | None ->
        Printf.eprintf "ledger worker: missing %s\n" k;
        exit 2
  in
  let seed = int_of_string (get "--seed") in
  let trace_part = opt opts "--trace-part" in
  let w =
    {
      Work.seed;
      seconds = float_of_string (get "--seconds");
      min_rounds = int_of_string (get "--min-rounds");
      traced = trace_part <> None;
      dir = get "--work-dir";
      nascentd = get "--nascentd";
      expected = get "--expected";
      rng = Random.State.make [| seed; Hashtbl.hash name |];
    }
  in
  mkdir_p w.Work.dir;
  let stop _ =
    Daemon.stop_all ();
    exit 3
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let out = Outcome.create () in
  (try
     Fun.protect ~finally:Daemon.stop_all @@ fun () ->
     match name with
     | "compile-matrix" -> Compile_matrix.run w out
     | "exec-suite" -> Exec_suite.run w out
     | "serve-hit" -> Serve.run Serve.Hit w out
     | "serve-miss" -> Serve.run Serve.Miss w out
     | "serve-routed" -> Serve.run Serve.Routed w out
     | _ -> failwith ("unknown workload " ^ name)
   with e -> Outcome.fail out (name ^ ": " ^ Printexc.to_string e));
  Option.iter Spans.write_part trace_part;
  print_endline (Json.to_string (Outcome.to_json out));
  exit 0

(* --- run: every requested workload in its own child ------------------- *)

let spawn_worker ~argv =
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let text = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (text, status)

exception Abort of string

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

let last_line text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.rev
  |> function
  | l :: _ -> Some l
  | [] -> None

(* One workload in a fresh worker: its outcome, and every metric of
   [specs] with its value (0 for a layer the workload does not cross). *)
let run_workload ~exe ~opts ~seed ~quick ~trace ~nascentd ~run_dir ~specs name =
  let seconds =
    match opt opts "--seconds" with
    | Some s -> s
    | None -> if quick then "1" else Printf.sprintf "%g" (default_seconds name)
  in
  let part = Filename.concat run_dir (name ^ ".trace") in
  let argv =
    [
      exe; "worker"; name;
      "--seed"; string_of_int seed;
      "--seconds"; seconds;
      "--min-rounds"; (if quick then "2" else "3");
      "--work-dir"; Filename.concat run_dir name;
      "--nascentd"; nascentd;
      "--expected"; opt_or opts "--expected" "bench/ledger/expected";
    ]
    @ if trace then [ "--trace-part"; part ] else []
  in
  let text, status = spawn_worker ~argv:(Array.of_list argv) in
  let o =
    match (status, last_line text) with
    | Unix.WEXITED 0, Some line -> (
        match Json.parse line with
        | Ok j -> ( try Outcome.of_json j with Failure e -> abort "%s: %s" name e)
        | Error e -> abort "%s: %s" name e)
    | _ -> abort "%s: the worker ended without a result" name
  in
  List.iter
    (fun n -> Printf.eprintf "ledger: %s: FAILED %s\n%!" name n)
    (List.rev o.Outcome.notes);
  List.iter
    (fun (k, v) ->
      if not (List.exists (fun m -> m.Catalogue.name = k) specs) then
        abort "%s reports %s, which BENCHMARK.json does not list here" name k;
      if Outcome.correct o && not (Float.is_finite v) then
        abort "%s: %s is not a finite number" name k)
    o.Outcome.metrics;
  Printf.printf "== %s (seed %d, %s s%s)\n" name seed seconds (if trace then ", traced" else "");
  let values =
    List.map
      (fun m ->
        let v = List.assoc_opt m.Catalogue.name o.Outcome.metrics in
        (match v with
        | Some x -> Printf.printf "  %-30s %14.6g %s\n" m.Catalogue.name x m.Catalogue.unit_
        | None -> if not trace then abort "%s did not report %s" name m.Catalogue.name);
        (m, match v with Some x when Float.is_finite x -> x | _ -> 0.0))
      specs
  in
  Printf.printf "  %-30s %14.6g ratio (%d failed of %d attempted)\n%!" "error_frac"
    (float_of_int o.Outcome.failed /. float_of_int (max 1 o.Outcome.attempted))
    o.Outcome.failed o.Outcome.attempted;
  (name, o, values, part)

let run opts =
  let seed =
    match int_opt opts "--seed" with
    | Some s -> s
    | None ->
        prerr_endline "ledger run: --seed N is required";
        usage ()
  in
  let quick = opt opts "--quick" <> None in
  let trace_file = opt opts "--trace" in
  let cat = Catalogue.load (opt_or opts "--benchmark" "BENCHMARK.json") in
  let names =
    match opt opts "--workload" with
    | None -> workloads
    | Some w when List.mem w workloads -> [ w ]
    | Some w ->
        Printf.eprintf "ledger: unknown workload %s (one of %s)\n" w
          (String.concat ", " workloads);
        exit 2
  in
  let exe = Sys.executable_name in
  (* _build/default/bench/ledger/ledger.exe -> _build/default/bin *)
  let nascentd =
    Filename.concat
      (Filename.dirname (Filename.dirname (Filename.dirname exe)))
      "bin/nascentd.exe"
  in
  let run_dir = Filename.concat "_ledger" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let trace = trace_file <> None in
  let specs = if trace then cat.Catalogue.per_layer else cat.Catalogue.end_to_end in
  let results =
    try
      mkdir_p run_dir;
      Fun.protect ~finally:(fun () -> rm_rf run_dir) @@ fun () ->
      let results =
        List.map (run_workload ~exe ~opts ~seed ~quick ~trace ~nascentd ~run_dir ~specs) names
      in
      Option.iter
        (fun file ->
          Spans.merge ~parts:(List.map (fun (_, _, _, p) -> p) results) ~out:file;
          Printf.printf "trace: %s (open it in ui.perfetto.dev)\n" file)
        trace_file;
      results
    with Abort e ->
      Printf.eprintf "ledger: %s\n" e;
      exit 1
  in
  let single = List.length results = 1 in
  let metrics =
    List.concat_map
      (fun (name, _, values, _) ->
        List.map
          (fun (m, v) ->
            ( (if single then m.Catalogue.name else name ^ "/" ^ m.Catalogue.name),
              Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Catalogue.unit_) ] ))
          values)
      results
  in
  let sum f = List.fold_left (fun a (_, o, _, _) -> a + f o) 0 results in
  let correct = List.for_all (fun (_, o, _, _) -> Outcome.correct o) results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (sum (fun o -> o.Outcome.attempted)));
            ("failed", Json.Int (sum (fun o -> o.Outcome.failed)));
            ("metrics", Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "run" :: rest -> run (parse_opts rest)
  | "worker" :: name :: rest -> worker name (parse_opts rest)
  | "compare" :: base :: fresh :: rest ->
      exit
        (Compare_cmd.run
           ~catalogue:(opt_or (parse_opts rest) "--benchmark" "BENCHMARK.json")
           base fresh)
  | [ "expected"; dir ] -> Exec_suite.write_expected dir
  | _ -> usage ()
