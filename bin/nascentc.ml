(* nascentc — command-line driver for the MiniF range-check optimizer.

   Subcommands:
     check FILE        parse and type-check, print diagnostics
     dump FILE         lower (and optionally optimize) then print the IR
     run FILE          execute with the instrumented interpreter
     stats FILE        compare all placement schemes on one program
     verify [FILE]     IR invariant verification across the config matrix
     bench NAME        run a built-in benchmark program by name
     client [FILE]     send one request to a running nascentd service

   The optimizing commands accept --verify BOOL (IR verification
   between passes, default on), --stats-json FILE (per-pass
   timing/counter records as JSON, written atomically) and
   --inject-fault SPEC (deliberate corruption of one pass's output,
   exercising the detect-and-rollback path). `dump` prints the per-pass
   lines too; rolled-back passes and a refused certificate go to
   stderr.

   Exit codes: 0 success; 1 input/usage error; 2 the interpreted
   program trapped or errored; 3 the verifier rejected the lowered
   input (nothing to roll back to); 4 compiled successfully but
   degraded — at least one optimizer pass faulted and was rolled back
   (see the incident records in --stats-json / stderr); 5 interrupted
   by SIGINT/SIGTERM (distinct so batch drivers can tell cancellation
   from failure); 6 the service answered deadline-exceeded; 7 the
   client exhausted its retries against an unreachable or shedding
   service.
*)

module Ir = Nascent_ir
module Core = Nascent_core
module Config = Core.Config
module Universe = Nascent_checks.Universe
module Run = Nascent_interp.Run
module Frontend = Nascent_frontend.Frontend
module B = Nascent_benchmarks.Suite
module Json = Nascent_support.Json
module Client = Nascent_support.Server.Client
module Retry = Nascent_support.Retry
module Guard = Nascent_support.Guard
module Mclock = Nascent_support.Mclock
open Cmdliner

(* Batch runs die on SIGINT/SIGTERM with a distinct exit code, so a
   driver script can tell "cancelled" from "failed". Exit runs the
   at_exit chain, so atomically-written outputs are never torn. *)
let exit_interrupted = 5

let install_signal_exit () =
  let handle name =
    Sys.Signal_handle
      (fun _ ->
        Fmt.epr "nascentc: interrupted (%s)@." name;
        Stdlib.exit exit_interrupted)
  in
  List.iter
    (fun (signal, name) ->
      try Sys.set_signal signal (handle name)
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigint, "SIGINT"); (Sys.sigterm, "SIGTERM") ];
  (* client mode races draining daemons: a broken pipe must surface as
     EPIPE (retryable) rather than kill the process *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_source path =
  if Sys.file_exists path then read_file path
  else
    match B.find path with
    | Some b -> b.B.source
    | None ->
        Fmt.epr "nascentc: no such file or built-in benchmark: %s@." path;
        exit 1

(* Frontend and lowering failures raise; report them as diagnostics
   rather than letting cmdliner dump a backtrace. A verifier violation
   is a distinct exit code: the input was fine, a pass broke the IR. *)
let with_errors f =
  try f () with
  | Failure msg | Ir.Lower.Lower_error msg ->
      Fmt.epr "nascentc: %s@." msg;
      1
  | Ir.Verify.Invalid_ir msg ->
      Fmt.epr "nascentc: %s@." msg;
      3

(* --- common arguments ------------------------------------------------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"MiniF source file, or the name of a built-in benchmark (vortex, arc2d, ...).")

(* One configuration axis, parsed by the wire form's parser: the CLI
   accepts exactly the names a request does, with the same errors. *)
let axis_conv field get name =
  let parse s =
    match Config.of_json (Json.Obj [ (field, Json.Str s) ]) with
    | Ok c -> Ok (get c)
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (name v))

let scheme_arg =
  Arg.(
    value
    & opt (axis_conv "scheme" (fun c -> c.Config.scheme) Config.scheme_name) Config.LLS
    & info [ "s"; "scheme" ] ~docv:"SCHEME"
        ~doc:"Placement scheme: NI, CS, LNI, SE, LI, LLS, ALL or MCM.")

let kind_arg =
  Arg.(
    value
    & opt (axis_conv "kind" (fun c -> c.Config.kind) Config.kind_name) Config.PRX
    & info [ "k"; "kind" ] ~docv:"KIND"
        ~doc:"Check construction: PRX (program expressions) or INX (induction expressions).")

let impl_arg =
  Arg.(
    value
    & opt
        (axis_conv "impl" (fun c -> c.Config.impl) Universe.mode_name)
        Universe.All_implications
    & info [ "i"; "implications" ] ~docv:"MODE"
        ~doc:
          "Check implication mode: all (all-impl), cross (cross-family-only) or \
           none (no-impl).")

let verify_arg =
  Arg.(
    value
    & opt bool true
    & info [ "verify" ] ~docv:"BOOL"
        ~doc:"Run the IR invariant verifier between optimizer passes (default true).")

let oracle_arg =
  Arg.(
    value
    & flag
    & info [ "oracle" ]
        ~doc:
          "Consult the decision-procedure implication oracle during elimination \
           (cross-family implications beyond the within-family rule) and run \
           per-compile translation validation: every original check site is \
           proven still covered by the residual checks plus dominating guards. \
           The certificate appears as the \"validated\" field of --stats-json.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan independent (program × scheme × kind × implication) cells over \
           $(docv) domains; 1 forces the serial path. Defaults to $(b,NASCENT_JOBS) \
           or the host's recommended domain count. Results are deterministic \
           regardless of $(docv).")

let setup_jobs jobs = Option.iter Nascent_support.Pool.set_default_jobs jobs

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:"Write optimizer statistics, including the per-pass breakdown, to $(docv) as JSON.")

(* temp + rename: a crashed or interrupted run never leaves a torn
   stats file for a dashboard to misparse *)
let write_json path json = Guard.write_atomic ~path (Json.to_string json ^ "\n")

let naive_arg =
  Arg.(value & flag & info [ "naive" ] ~doc:"Skip optimization (naive checking).")

let fuel_arg =
  Arg.(
    value
    & opt int Run.default_fuel
    & info [ "fuel" ] ~docv:"N" ~doc:"Interpreter step budget.")

let fault_classes_doc =
  "drop-check, weaken-check, break-edge, unsafe-insert, hang-fixpoint or \
   unsound-eliminate"

(* A single CLASS[:SEED] spec, for the optimizing commands. *)
let fault_arg =
  let parse s =
    match Ir.Mutate.parse_request s with
    | Ok (Ir.Mutate.Single spec) -> Ok spec
    | Ok Ir.Mutate.Smoke ->
        Error (`Msg "--inject-fault smoke is only valid for the verify subcommand")
    | Error e -> Error (`Msg e)
  in
  let print ppf s = Fmt.string ppf (Ir.Mutate.spec_name s) in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "inject-fault" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Deliberately corrupt one optimizer pass's output — $(docv) is \
              CLASS or CLASS:SEED, with CLASS one of %s — to exercise the \
              detect-and-rollback path. Forces the verifier on; a compile that \
              detects and recovers from a fault exits with code 4."
             fault_classes_doc))

let config_term =
  Term.(
    const (fun scheme kind impl verify fault oracle ->
        Config.make ~scheme ~kind ~impl ~verify ?fault ~oracle ())
    $ scheme_arg $ kind_arg $ impl_arg $ verify_arg $ fault_arg $ oracle_arg)

(* Exit 4 — compiled, but degraded: some pass rolled back, or the
   translation-validation certificate could not be established. *)
let exit_of_stats ?(ok = 0) = function
  | Some st when st.Core.Optimizer.incidents <> [] ->
      Fmt.epr "nascentc: %d optimizer pass(es) rolled back:@.%a@."
        (List.length st.Core.Optimizer.incidents)
        (Fmt.list Core.Optimizer.pp_incident)
        st.Core.Optimizer.incidents;
      4
  | Some st when Core.Optimizer.validated st = Some false ->
      (match st.Core.Optimizer.validation with
      | Some v -> Fmt.epr "nascentc: %a@." Ir.Validate.pp v
      | None -> ());
      4
  | _ -> ok

(* --- commands ---------------------------------------------------------- *)

let cmd_check =
  let doc = "Parse and type-check a MiniF program." in
  let run file =
    with_errors @@ fun () ->
    match Frontend.analyze (load_source file) with
    | Ok (prog, _) ->
        Fmt.pr "%s: OK (%d unit(s))@." file (List.length prog.Nascent_frontend.Ast.units);
        0
    | Error e ->
        Fmt.epr "%a@." Frontend.pp_error e;
        1
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ file_arg)

let optimize_source src config ~naive =
  let ir = Ir.Lower.of_source src in
  if naive then (ir, None)
  else
    let opt, stats = Core.Optimizer.optimize ~config ir in
    (opt, Some stats)

let cmd_dump =
  let doc = "Lower (and optimize) a program, then print its IR." in
  let run file config naive json =
    with_errors @@ fun () ->
    let prog, stats = optimize_source (load_source file) config ~naive in
    Option.iter (Fmt.pr "! %a@.@." Core.Optimizer.pp_stats) stats;
    (match (stats, json) with
    | Some st, Some path -> write_json path (Core.Optimizer.stats_to_json st)
    | _ -> ());
    Fmt.pr "%s@." (Ir.Printer.program_to_string prog);
    exit_of_stats stats
  in
  Cmd.v (Cmd.info "dump" ~doc)
    Term.(const run $ file_arg $ config_term $ naive_arg $ stats_json_arg)

let cmd_run =
  let doc = "Execute a program under the instrumented interpreter." in
  let run file config naive fuel json =
    with_errors @@ fun () ->
    let prog, stats = optimize_source (load_source file) config ~naive in
    (match (stats, json) with
    | Some st, Some path -> write_json path (Core.Optimizer.stats_to_json st)
    | _ -> ());
    let o = Run.run ~fuel prog in
    Fmt.pr "%a@." Run.pp_outcome o;
    if o.Run.trap <> None || o.Run.error <> None then 2 else exit_of_stats stats
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ file_arg $ config_term $ naive_arg $ fuel_arg $ stats_json_arg)

let cmd_stats =
  let doc = "Compare every placement scheme on one program." in
  let run file kind verify fault json =
    with_errors @@ fun () ->
    let src = load_source file in
    let ir = Ir.Lower.of_source src in
    let o0 = Run.run ir in
    Fmt.pr "naive: %d dynamic checks, %d instruction units@." o0.Run.checks o0.Run.instrs;
    Fmt.pr "%-6s %12s %12s %9s@." "scheme" "checks" "%eliminated" "time(ms)";
    let all_stats =
      List.map
        (fun scheme ->
          let config = Config.make ~scheme ~kind ~verify ?fault () in
          let opt, stats = Core.Optimizer.optimize ~config ir in
          let o = Run.run opt in
          Fmt.pr "%-6s %12d %11.2f%% %9.2f@." (Config.scheme_name scheme) o.Run.checks
            (100.0
            *. float_of_int (o0.Run.checks - o.Run.checks)
            /. float_of_int (max 1 o0.Run.checks))
            (1000.0 *. stats.Core.Optimizer.elapsed_s);
          stats)
        Config.extended_schemes
    in
    Option.iter
      (fun path ->
        write_json path (Json.List (List.map Core.Optimizer.stats_to_json all_stats)))
      json;
    List.fold_left
      (fun code st -> max code (exit_of_stats (Some st)))
      0 all_stats
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run $ file_arg $ kind_arg $ verify_arg $ fault_arg $ stats_json_arg)

(* Schemes whose pipeline runs the pass a mutation class targets; a
   cell outside this set could never apply its fault, so it proves
   nothing. *)
let fault_schemes = function
  | Ir.Mutate.Drop_check | Ir.Mutate.Weaken_check -> [ Config.CS ]
  | Ir.Mutate.Unsafe_insert -> [ Config.SE; Config.LNI; Config.ALL ]
  | Ir.Mutate.Break_edge | Ir.Mutate.Hang_fixpoint ->
      (* "eliminate" runs in every scheme *)
      Config.extended_schemes
  | Ir.Mutate.Unsound_eliminate ->
      (* schemes whose residual in-place checks are reference checks;
         insertion schemes (SE/LNI/ALL) can leave an inserted check
         that covers no reference obligation, whose deletion the
         validator rightly does not flag *)
      [ Config.NI; Config.LLS ]

(* One fault-injection cell: optimize under a deliberately corrupted
   pass and check the full recovery contract. Returns
   [injected, failure messages]. *)
let fault_cell (name, ir, spec, scheme) =
  (* [unsound-eliminate] is legal under every differential rule, so its
     cells compile with the oracle on: the translation validator is the
     detection mechanism under test, and "detected" means the
     certificate was refused with no pass incident. *)
  let unsound = spec.Ir.Mutate.cls = Ir.Mutate.Unsound_eliminate in
  let config = Config.make ~scheme ~fault:spec ~oracle:unsound () in
  let where = Fmt.str "%s under %a" name Config.pp config in
  match Core.Optimizer.optimize ~config ir with
  | exception Ir.Verify.Invalid_ir msg ->
      (false, [ Fmt.str "%s: escaped the rollback guard:@.%s" where msg ])
  | opt, stats ->
      let injected = stats.Core.Optimizer.faults_injected > 0 in
      let errs = ref [] in
      let fail fmt = Fmt.kstr (fun m -> errs := Fmt.str "%s: %s" where m :: !errs) fmt in
      (if injected then begin
         if unsound then begin
           if stats.Core.Optimizer.incidents <> [] then
             fail "unsound deletion drew a pass incident (should be rule-invisible)";
           if Core.Optimizer.validated stats <> Some false then
             fail "unsound deletion escaped the translation validator"
         end
         else if
           (* detection: a corruption that draws no incident escaped *)
           stats.Core.Optimizer.incidents = []
         then fail "injected fault drew no incident (undetected corruption)"
       end
       else if unsound && Core.Optimizer.validated stats <> Some true then
         fail "fault-free cell lost its validation certificate"
       else if stats.Core.Optimizer.incidents <> [] then
         (* the converse: nothing was corrupted, so nothing may roll back *)
         fail "no fault applied, yet %d incident(s) were reported"
           (List.length stats.Core.Optimizer.incidents));
      (* the recovered output must be valid IR... *)
      (match Ir.Verify.program opt with
      | [] -> ()
      | vs ->
          fail "recovered program is invalid: %a"
            (Fmt.list Ir.Verify.pp_violation) vs);
      (* ...and behave exactly like the naive-checked original *)
      (if injected then
         let o0 = Run.run ir and o = Run.run opt in
         if o.Run.printed <> o0.Run.printed then fail "recovered program prints differently";
         if (o.Run.trap = None) <> (o0.Run.trap = None) then
           fail "recovered program traps differently";
         if (o.Run.error = None) <> (o0.Run.error = None) then
           fail "recovered program errors differently");
      (injected, List.rev !errs)

let cmd_verify =
  let doc =
    "Verify IR invariants between optimizer passes across the full configuration \
     matrix (every scheme, check kind and implication mode), on one program or on \
     all built-in benchmarks. With --inject-fault, additionally prove the \
     fail-safe contract: every injected corruption is detected, rolled back, and \
     the recovered compile still matches the naive interpreter."
  in
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "MiniF source file or built-in benchmark name; all built-in benchmarks \
             when omitted.")
  in
  let fault_req_arg =
    let parse s =
      match Ir.Mutate.parse_request s with
      | Ok r -> Ok r
      | Error e -> Error (`Msg e)
    in
    let print ppf = function
      | Ir.Mutate.Smoke -> Fmt.string ppf "smoke"
      | Ir.Mutate.Single s -> Fmt.string ppf (Ir.Mutate.spec_name s)
    in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "inject-fault" ] ~docv:"SPEC"
          ~doc:
            (Printf.sprintf
               "Fault-injection mode: $(docv) is $(b,smoke) (the full class × \
                benchmark × scheme matrix, seeded per cell), CLASS or CLASS:SEED \
                (CLASS one of %s). Fails if any injected fault goes undetected, \
                any fault-free cell reports an incident, or a recovered compile \
                diverges from the naive interpreter."
               fault_classes_doc))
  in
  let run file fault jobs oracle =
    with_errors @@ fun () ->
    setup_jobs jobs;
    let targets =
      match file with
      | Some f -> [ (f, load_source f) ]
      | None -> List.map (fun b -> (b.B.name, b.B.source)) B.all
    in
    let failures = ref 0 in
    let lowered =
      List.map
        (fun (name, src) ->
          let ir = Ir.Lower.of_source src in
          (match Ir.Verify.program ir with
          | [] -> ()
          | vs ->
              incr failures;
              List.iter
                (fun v -> Fmt.epr "%s (lowered): %a@." name Ir.Verify.pp_violation v)
                vs);
          (name, ir))
        targets
    in
    let pool = Nascent_support.Pool.global () in
    (match fault with
    | None ->
        let impls =
          [
            Universe.All_implications;
            Universe.Cross_family_only;
            Universe.No_implications;
          ]
        in
        (* The matrix cells are independent — each optimizes its own
           copy — so they fan out over the domain pool; failures are
           collected and reported afterwards in deterministic matrix
           order. A faulting pass no longer raises: it rolls back and
           leaves an incident record, so an incident IS the failure. *)
        let cells =
          List.concat_map
            (fun (name, ir) ->
              List.concat_map
                (fun scheme ->
                  List.concat_map
                    (fun kind ->
                      List.map
                        (fun impl ->
                          ( name,
                            ir,
                            Config.make ~scheme ~kind ~impl ~verify:true ~oracle () ))
                        impls)
                    [ Config.PRX; Config.INX ])
                Config.extended_schemes)
            lowered
        in
        (* A certificate that fell back from checking the oracle-elim
           hint to searching for entry facts is still a certificate,
           but a slow one: the sweep counts those functions and fails
           on any. *)
        let outcomes =
          Nascent_support.Pool.parallel_map pool
            (fun (name, ir, config) ->
              match Core.Optimizer.optimize ~config ir with
              | _, stats -> (
                  let fallbacks =
                    match stats.Core.Optimizer.validation with
                    | Some v -> v.Ir.Validate.fallbacks
                    | None -> 0
                  in
                  let fail msg = (fallbacks, Some (name, config, msg)) in
                  match
                    (stats.Core.Optimizer.incidents, Core.Optimizer.validated stats)
                  with
                  | [], Some false ->
                      fail
                        (Fmt.str "translation validation failed:@.%a"
                           (Fmt.option Ir.Validate.pp)
                           stats.Core.Optimizer.validation)
                  | [], _ when fallbacks > 0 ->
                      fail
                        (Fmt.str "certificate fell back to the search in %d function(s)"
                           fallbacks)
                  | [], _ -> (0, None)
                  | is, _ ->
                      fail
                        (Fmt.str "%d pass(es) rolled back:@.%a" (List.length is)
                           (Fmt.list Core.Optimizer.pp_incident)
                           is))
              | exception Ir.Verify.Invalid_ir msg -> (0, Some (name, config, msg)))
            cells
        in
        List.iter
          (function
            | _, None -> ()
            | _, Some (name, config, msg) ->
                incr failures;
                Fmt.epr "%s under %a:@.%s@." name Config.pp config msg)
          outcomes;
        if oracle then
          Fmt.pr "certificate fallbacks: %d@."
            (List.fold_left (fun n (k, _) -> n + k) 0 outcomes);
        if !failures = 0 then
          Fmt.pr
            "verified %d program(s) under %d configuration(s) (jobs=%d): no violations@."
            (List.length targets) (List.length cells)
            (Nascent_support.Pool.default_jobs ())
    | Some req ->
        (* Fault matrix: smoke sweeps every class over every target and
           every scheme whose pipeline can apply it, with a
           deterministic per-cell seed; a single spec pins class and
           seed. *)
        let cells =
          match req with
          | Ir.Mutate.Single spec ->
              List.concat_map
                (fun (name, ir) ->
                  List.map
                    (fun scheme -> (name, ir, spec, scheme))
                    (fault_schemes spec.Ir.Mutate.cls))
                lowered
          | Ir.Mutate.Smoke ->
              List.concat_map
                (fun cls ->
                  List.concat_map
                    (fun (name, ir) ->
                      List.mapi
                        (fun i scheme ->
                          (name, ir, { Ir.Mutate.cls; seed = (13 * i) + 1 }, scheme))
                        (fault_schemes cls))
                    lowered)
                Ir.Mutate.all_classes
        in
        let outcomes = Nascent_support.Pool.parallel_map pool fault_cell cells in
        let injected = ref 0 in
        List.iter
          (fun (inj, errs) ->
            if inj then incr injected;
            List.iter
              (fun e ->
                incr failures;
                Fmt.epr "%s@." e)
              errs)
          outcomes;
        (* vacuity: a class that never actually corrupted anything
           proved nothing — fail loudly rather than report green *)
        let classes =
          match req with
          | Ir.Mutate.Single spec -> [ spec.Ir.Mutate.cls ]
          | Ir.Mutate.Smoke -> Ir.Mutate.all_classes
        in
        List.iter
          (fun cls ->
            let applied =
              List.exists2
                (fun (_, _, spec, _) (inj, _) -> spec.Ir.Mutate.cls = cls && inj)
                cells outcomes
            in
            if not applied then begin
              incr failures;
              Fmt.epr "fault class %s never applied to any cell (vacuous)@."
                (Ir.Mutate.cls_name cls)
            end)
          classes;
        if !failures = 0 then
          Fmt.pr
            "fault injection: %d/%d cell(s) corrupted, all detected, rolled back \
             and behaviour-preserving (jobs=%d)@."
            !injected (List.length cells)
            (Nascent_support.Pool.default_jobs ()));
    if !failures = 0 then 0
    else begin
      Fmt.epr "%d verification failure(s)@." !failures;
      1
    end
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run $ file_opt_arg $ fault_req_arg $ jobs_arg $ oracle_arg)

(* --- compile-service client -------------------------------------------- *)

let default_socket () =
  match Sys.getenv_opt "NASCENT_SOCKET" with
  | Some s when String.trim s <> "" -> s
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "nascentd.sock"

let cmd_client =
  let doc =
    "Send one request to a running nascentd compile service and print its \
     JSON response. Retries connection refusals and retryable errors \
     (overload shedding, drain) with exponential backoff and deterministic \
     jitter. Exit codes: 0 ok; 4 compiled degraded (incidents or breaker \
     fallback); 2 the requested run trapped/errored or the service failed \
     internally; 6 deadline exceeded; 7 retries exhausted; 1 bad request."
  in
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "MiniF source file or built-in benchmark name to compile \
             (required unless --status or --burn).")
  in
  let socket_arg =
    Arg.(
      value
      & opt string (default_socket ())
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Address of the nascentd instance: a Unix socket path or \
             HOST:PORT (both speak the NF1 framed protocol) — a shard \
             router is just a daemon at such an address. Defaults to \
             $(b,NASCENT_SOCKET) or \
             $(b,TMPDIR/nascentd.sock).")
  in
  let recv_timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "recv-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-attempt receive budget: a response not arriving within \
             $(docv) abandons the connection and retries on a fresh one \
             (a stalled or silently dead peer costs a bounded wait, not a \
             hang). Omitted: wait indefinitely.")
  in
  let status_arg =
    Arg.(
      value
      & flag
      & info [ "status" ]
          ~doc:
            "Ask for server status (uptime, queue, breaker states, \
             counters) instead of compiling.")
  in
  let burn_arg =
    Arg.(
      value
      & flag
      & info [ "burn" ]
          ~doc:
            "Send a deliberately non-terminating request (exercises the \
             service's deadline path; expect exit 6).")
  in
  let run_flag_arg =
    Arg.(
      value
      & flag
      & info [ "run" ]
          ~doc:"Also execute the optimized program under the interpreter.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request wall-clock budget override; $(docv) <= 0 asks for \
             an unbounded request. Omitted: the server's default applies.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int Retry.default.Retry.max_attempts
      & info [ "retries" ] ~docv:"N"
          ~doc:"Total connection/retryable-error attempts, including the first.")
  in
  let max_wait_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-wait-ms" ] ~docv:"MS"
          ~doc:
            "Total elapsed budget across all retry attempts: riding through \
             a supervised daemon restart keeps retrying, but never waits \
             longer than $(docv) in total. Exhaustion exits 7 like any \
             retries-exhausted failure. Omitted: only --retries bounds the \
             schedule.")
  in
  let exit_of_response resp =
    match Json.str_member "status" resp with
    | Some "error" ->
        let code = Option.value ~default:"?" (Json.str_member "code" resp) in
        Fmt.epr "nascentc: service error %s: %s@." code
          (Option.value ~default:"" (Json.str_member "detail" resp));
        if code = "deadline" then 6 else if code = "internal" then 2 else 1
    | _ ->
        (* ok / degraded / status — the response is on stdout either way *)
        let run_failed =
          match Json.member "run" resp with
          | Some run ->
              Json.str_member "trap" run <> None
              || Json.str_member "error" run <> None
          | None -> false
        in
        if run_failed then 2
        else if Json.int_member "code" resp = Some 4 then 4
        else 0
  in
  (* The backoff jitter depends only on this seed and the attempt. *)
  let jitter_seed = 1 in
  let run file socket status burn config want_run deadline_ms retries
      max_wait_ms recv_timeout_ms =
    let recv_timeout_s =
      Option.map (fun ms -> float_of_int (max 1 ms) /. 1000.0) recv_timeout_ms
    in
    let deadline =
      match deadline_ms with
      | None -> []
      | Some ms -> [ ("deadline_ms", Json.Int ms) ]
    in
    let policy = { Retry.default with Retry.max_attempts = max 1 retries } in
    let max_elapsed_s =
      Option.map (fun ms -> float_of_int (max 0 ms) /. 1000.0) max_wait_ms
    in
    let req_fields =
      if status then Some [ ("op", Json.Str "status") ]
      else if burn then Some [ ("op", Json.Str "burn") ]
      else
        match file with
        | None ->
            Fmt.epr "nascentc: client needs FILE, --status or --burn@.";
            None
        | Some f ->
            let program =
              if Sys.file_exists f then ("source", Json.Str (read_file f))
              else
                match B.find f with
                | Some _ -> ("benchmark", Json.Str f)
                | None ->
                    Fmt.epr "nascentc: no such file or built-in benchmark: %s@." f;
                    exit 1
            in
            let config_fields =
              match Config.to_json config with Json.Obj f -> f | _ -> []
            in
            Some
              ((("op", Json.Str "compile") :: program :: config_fields)
              @ [ ("run", Json.Bool want_run) ])
    in
    match req_fields with
    | None -> 1
    | Some fields ->
        let req = Json.Obj ((("id", Json.Str "cli") :: fields) @ deadline) in
        (match
           Client.request_retry ~policy ?max_elapsed_s ?recv_timeout_s
             ~seed:jitter_seed socket req
         with
        | Ok resp ->
            Fmt.pr "%s@." (Json.to_string resp);
            exit_of_response resp
        | Error msg ->
            Fmt.epr "nascentc: %s@." msg;
            7)
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ file_opt_arg $ socket_arg $ status_arg $ burn_arg
      $ config_term $ run_flag_arg $ deadline_arg $ retries_arg
      $ max_wait_arg $ recv_timeout_arg)

let cmd_list =
  let doc = "List the built-in benchmark programs." in
  let run () =
    List.iter
      (fun b -> Fmt.pr "%-10s %-8s %s@." b.B.name b.B.bsuite b.B.description)
      B.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  install_signal_exit ();
  let doc = "range-check optimizer for MiniF (Kolte & Wolfe, PLDI 1995)" in
  let info = Cmd.info "nascentc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ cmd_check; cmd_dump; cmd_run; cmd_stats; cmd_verify; cmd_list; cmd_client ]))
