(* nascentd — the MiniF range-check optimizer as a long-running
   service.

   Listens on a Unix-domain socket (and, with --tcp, a TCP port) for
   requests in NF1 frames (see Nascent_support.Frame for the wire
   format, Nascent_support.Server for the envelope and
   Nascent_harness.Service for the operations), fanning compiles over
   worker domains behind a bounded admission queue, per-request
   wall-clock deadlines, a per-scheme circuit breaker and a
   content-addressed result cache.

   Crash behaviour: a compile is a pure function of (source,
   configuration), so nothing a request computes needs to outlive the
   process — a daemon that dies mid-request restarts clean and the
   client's retry recomputes. What does outlive it: breaker state and
   service counters are snapshotted to --state-file and restored (a
   tripped scheme stays tripped); --supervise forks the serving process
   and restarts it on abnormal exit with capped backoff;
   NASCENT_MEM_BUDGET / --mem-budget-mb arms the Guard memory watchdog
   (shed admissions under pressure, abort the offending request over
   budget). A second daemon pointed at the socket of a live one
   refuses to start with a clear error instead of taking it over.

   SIGTERM / SIGINT request a graceful drain: the listener closes, new
   requests are shed with a retryable "shutting-down" error, every
   already-admitted request is finished and answered, then the daemon
   exits 0 (the supervisor passes both signals through to the serving
   child). Talk to it with `nascentc client --connect SOCK ...`. *)

module Server = Nascent_support.Server
module Service = Nascent_harness.Service
module Guard = Nascent_support.Guard
module Retry = Nascent_support.Retry
module Mclock = Nascent_support.Mclock
module Frame = Nascent_support.Frame
module Router = Nascent_support.Router
module Netfault = Nascent_support.Netfault
open Cmdliner

let default_socket () =
  match Sys.getenv_opt "NASCENT_SOCKET" with
  | Some s when String.trim s <> "" -> s
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "nascentd.sock"

let default_queue_depth () =
  match Sys.getenv_opt "NASCENT_QUEUE_DEPTH" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> 64)
  | None -> 64

(* The request journal is gone; a deployment that still sets its
   variable gets one line saying what replaced it. *)
let warn_stale_journal_env () =
  match Sys.getenv_opt "NASCENT_JOURNAL_DIR" with
  | Some s when String.trim s <> "" ->
      Fmt.epr
        "nascentd: NASCENT_JOURNAL_DIR is ignored: the request journal was \
         removed (a retry recomputes); use --state-file to keep breaker \
         state across restarts@."
  | _ -> ()

let socket_arg =
  Arg.(
    value
    & opt string (default_socket ())
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path to listen on (a stale socket file is \
           replaced). Defaults to $(b,NASCENT_SOCKET) or \
           $(b,TMPDIR/nascentd.sock).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"[HOST:]PORT"
        ~doc:
          "Additional TCP listener speaking the NF1 framed protocol with \
           per-connection pipelining. $(docv) is a port, or HOST:PORT to \
           bind one interface (default: every interface); port 0 picks an \
           ephemeral port, echoed as the \"tcp_port\" status field. The \
           Unix socket speaks the same protocol.")

let idle_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "idle-timeout-s" ] ~docv:"S"
        ~doc:
          "Reap a connected-but-silent client (no partial input, no \
           response owed) after $(docv) seconds without a byte, on both \
           transports; counted as \"idle_closed\". Unset disables the \
           reaper.")

let io_deadline_arg =
  Arg.(
    value
    & opt float 10.0
    & info [ "io-deadline-s" ] ~docv:"S"
        ~doc:
          "Slow-loris bound: a frame left incomplete for $(docv) seconds \
           closes its connection (counted \"io_timeouts\"); also the \
           kernel send-timeout for response writes. $(docv) <= 0 disables \
           both.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains serving compile requests. Defaults to \
           $(b,NASCENT_JOBS) or 2.")

let queue_arg =
  Arg.(
    value
    & opt int (default_queue_depth ())
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Admission bound: requests beyond $(docv) queued are shed with a \
           retryable \"overloaded\" error instead of piling up. Defaults to \
           $(b,NASCENT_QUEUE_DEPTH) or 64.")

let deadline_arg =
  Arg.(
    value
    & opt int 30_000
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request wall-clock budget, measured from admission \
           (queue wait counts); a request exceeding it is answered with a \
           structured \"deadline\" error and its worker freed. Requests may \
           override with their own \"deadline_ms\" field. $(docv) <= 0 \
           disables the default.")

let fuel_arg =
  Arg.(
    value
    & opt int 50_000_000
    & info [ "request-fuel" ] ~docv:"N"
        ~doc:
          "Per-request optimizer fuel budget (deterministic backstop under \
           the wall-clock deadline). $(docv) <= 0 disables it.")

let threshold_arg =
  Arg.(
    value
    & opt int 3
    & info [ "breaker-threshold" ] ~docv:"K"
        ~doc:
          "Trip a scheme's circuit breaker after $(docv) consecutive \
           incident-bearing compiles; tripped schemes are served at the \
           always-safe NI floor until a cooldown probe succeeds.")

let cooldown_arg =
  Arg.(
    value
    & opt int 2_000
    & info [ "breaker-cooldown-ms" ] ~docv:"MS"
        ~doc:"Cooldown before a tripped breaker lets one probe through.")

let state_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-file" ] ~docv:"FILE"
        ~doc:
          "Snapshot file for breaker states and service counters, written \
           atomically after every compile and restored on start (a tripped \
           scheme stays routed to the NI floor across a restart). Unset, \
           the daemon keeps no state across restarts.")

let mem_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-budget-mb" ] ~docv:"MB"
        ~doc:
          "Major-heap budget for the memory watchdog: past 80% new \
           admissions are shed as retryable \"overloaded\", past 100% the \
           request that crossed it is aborted with a recorded \
           \"mem-pressure\" incident instead of letting the OS OOM-kill the \
           daemon. Defaults to $(b,NASCENT_MEM_BUDGET) (MB); $(docv) <= 0 \
           or unset disables the watchdog.")

let supervise_arg =
  Arg.(
    value
    & flag
    & info [ "supervise" ]
        ~doc:
          "Fork the serving process and restart it on abnormal exit with \
           capped exponential backoff (SIGTERM/SIGINT are passed through \
           for a clean drain; a clean exit ends supervision). Requests a \
           crashed server admitted are recomputed by the clients' retries; \
           combine with $(b,--state-file) to keep breaker state across the \
           restart.")

let trace_arg =
  Arg.(
    value
    & flag
    & info [ "trace" ] ~doc:"Log server lifecycle events to stderr.")

let router_arg =
  Arg.(
    value
    & flag
    & info [ "router" ]
        ~doc:
          "Serve as a shard router instead of compiling: requests are \
           forwarded to the $(b,--shard) daemons by a consistent hash of \
           the fields that determine the memo cache key, shards are \
           health-checked (status probes; consecutive failures eject a \
           shard until a probe succeeds again) and idempotent requests \
           fail over to the next shard on the ring. Reuses \
           $(b,--breaker-threshold) / $(b,--breaker-cooldown-ms) for the \
           health breaker.")

let shard_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "shard" ] ~docv:"[NAME=]ADDR"
        ~doc:
          "A shard daemon behind $(b,--router) (repeatable). $(i,ADDR) is \
           a Unix socket path or HOST:PORT; $(i,NAME) defaults to the \
           address and is the shard's stable ring identity — keep names \
           fixed across restarts so the hash ring (and every shard's \
           cache) stays put.")

let shard_name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "shard-name" ] ~docv:"NAME"
        ~doc:
          "This daemon's identity behind a shard router, echoed as the \
           \"shard\" status field (purely observational: one status sweep \
           tells which shard answered).")

let probe_interval_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "probe-interval-s" ] ~docv:"S"
        ~doc:"Router health-probe cadence per shard.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"CLASS[:SEED]"
        ~doc:
          "Run as a deterministic chaos proxy instead of serving: listen \
           on $(b,--socket) (or $(b,--tcp)) and forward every connection \
           to $(b,--upstream), injecting $(docv) faults on every third \
           connection (seeded, reproducible). Classes: torn-frame, \
           truncated-write, delayed-bytes, reset-mid-exchange, \
           garbage-frame, oversized-frame, stalled-reader.")

let upstream_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "upstream" ] ~docv:"ADDR"
        ~doc:
          "The real daemon behind $(b,--chaos): a Unix socket path or \
           HOST:PORT. Both transports speak NF1 frames, so the proxy's \
           listen transport need not match the upstream's.")

(* "PORT" or "HOST:PORT" for the TCP listener. *)
let parse_tcp_listen s =
  match int_of_string_opt s with
  | Some p when p >= 0 && p < 65536 -> Ok ("", p)
  | _ -> (
      match String.rindex_opt s ':' with
      | None -> Error (Printf.sprintf "bad --tcp %S (PORT or HOST:PORT)" s)
      | Some i -> (
          let host = String.sub s 0 i in
          let port = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p < 65536 -> Ok (host, p)
          | _ -> Error (Printf.sprintf "bad --tcp port %S" port)))

(* "NAME=ADDR" or bare "ADDR" for --shard. *)
let parse_shard s =
  let name, addr =
    match String.index_opt s '=' with
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, s)
  in
  { Router.name; address = Server.Client.parse_address addr }

let network_budgets ~idle_timeout_s ~io_deadline_s =
  ( idle_timeout_s,
    if io_deadline_s <= 0.0 then None else Some io_deadline_s )

(* The serving process proper: arm the watchdog, restore state,
   serve. [restarts] is the supervisor's restart count, echoed in the
   status op. *)
let serve ~restarts socket tcp jobs queue_depth deadline_ms request_fuel
    threshold cooldown_ms trace state_path mem_budget_mb
    idle_timeout_s io_deadline_s shard_name =
  if trace then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  let jobs =
    match jobs with
    | Some n -> max 1 n
    | None -> (
        match Sys.getenv_opt "NASCENT_JOBS" with
        | Some s -> ( match int_of_string_opt (String.trim s) with
                      | Some n when n > 0 -> n
                      | _ -> 2)
        | None -> 2)
  in
  let mem_bytes =
    match mem_budget_mb with
    | Some mb when mb > 0 -> Some (mb * 1024 * 1024)
    | Some _ -> None
    | None -> Guard.mem_budget_from_env ()
  in
  Guard.set_mem_budget ~bytes:mem_bytes ();
  let idle_timeout_s, io_deadline_s =
    network_budgets ~idle_timeout_s ~io_deadline_s
  in
  let cfg =
    {
      Server.socket_path = socket;
      tcp;
      jobs;
      queue_depth = max 1 queue_depth;
      default_deadline_s =
        (if deadline_ms <= 0 then None
         else Some (float_of_int deadline_ms /. 1000.0));
      request_fuel = (if request_fuel <= 0 then None else Some request_fuel);
      restarts;
      idle_timeout_s;
      io_deadline_s;
      max_frame_bytes = Frame.default_max_payload;
    }
  in
  let service =
    Service.create ~breaker_threshold:(max 1 threshold)
      ~breaker_cooldown_s:(float_of_int (max 0 cooldown_ms) /. 1000.0)
      ?state_path ?shard_name ()
  in
  let server = Server.create cfg (Service.handler service) in
  (* Graceful drain on either termination signal: stop is
     lock-free and signal-safe; run returns once every admitted
     request is answered. *)
  let on_signal _ = Server.stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (* A client vanishing mid-response must not kill the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fmt.epr
    "nascentd: listening on %s%s (jobs=%d queue=%d deadline=%s fuel=%s \
     state=%s mem=%s restarts=%d)@."
    socket
    (match tcp with
    | None -> ""
    | Some (h, p) -> Fmt.str " + tcp %s:%d" (if h = "" then "*" else h) p)
    jobs cfg.Server.queue_depth
    (match cfg.Server.default_deadline_s with
    | None -> "none"
    | Some s -> Fmt.str "%gs" s)
    (match cfg.Server.request_fuel with
    | None -> "none"
    | Some f -> string_of_int f)
    (Option.value ~default:"off" state_path)
    (match mem_bytes with
    | None -> "off"
    | Some b -> Fmt.str "%dMB" (b / (1024 * 1024)))
    restarts;
  Server.run server;
  Fmt.epr "nascentd: drained, exiting@.";
  0

(* Router mode: the same Server front (admission control, both
   transports, drain, inline status) with the Router's forwarding
   handler behind it instead of the compile service. No state file and
   no fuel — the router holds no state worth keeping (a request lost
   with a shard is recomputed by the failover or the client's retry)
   and forwarding burns no optimizer fuel.
   Workers block on shard I/O, so the router defaults to more of them
   than a compile daemon would want. *)
let serve_router ~restarts socket tcp jobs queue_depth deadline_ms threshold
    cooldown_ms trace shard_specs probe_interval_s idle_timeout_s io_deadline_s
    =
  if trace then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  match shard_specs with
  | [] ->
      Fmt.epr "nascentd: --router needs at least one --shard@.";
      1
  | specs ->
      let shards = List.map parse_shard specs in
      let cooldown_s = float_of_int (max 0 cooldown_ms) /. 1000.0 in
      let router =
        Router.create ~threshold:(max 1 threshold) ~cooldown_s
          ~probe_interval_s:(max 0.05 probe_interval_s) ~shards ()
      in
      let idle_timeout_s, io_deadline_s =
        network_budgets ~idle_timeout_s ~io_deadline_s
      in
      let cfg =
        {
          Server.socket_path = socket;
          tcp;
          jobs = (match jobs with Some n -> max 1 n | None -> 8);
          queue_depth = max 1 queue_depth;
          default_deadline_s =
            (if deadline_ms <= 0 then None
             else Some (float_of_int deadline_ms /. 1000.0));
          request_fuel = None;
          restarts;
          idle_timeout_s;
          io_deadline_s;
          max_frame_bytes = Frame.default_max_payload;
        }
      in
      let server = Server.create cfg (Router.handler router) in
      let on_signal _ = Server.stop server in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Fmt.epr "nascentd[router]: listening on %s%s, %d shard%s (%s)@." socket
        (match tcp with
        | None -> ""
        | Some (h, p) -> Fmt.str " + tcp %s:%d" (if h = "" then "*" else h) p)
        (List.length shards)
        (if List.length shards = 1 then "" else "s")
        (String.concat ", " (List.map (fun s -> s.Router.name) shards));
      Router.start router;
      Server.run server;
      Router.stop router;
      Fmt.epr "nascentd[router]: drained, exiting@.";
      0

(* Chaos proxy mode: nascentd fronts itself with its own fault
   injector so the ci smoke and any manual soak drive the production
   client/server/router stack through the Netfault catalogue without
   test scaffolding. *)
let run_chaos socket tcp chaos_str upstream =
  match Netfault.parse chaos_str with
  | Error e ->
      Fmt.epr "nascentd: --chaos %s@." e;
      1
  | Ok spec -> (
      match upstream with
      | None ->
          Fmt.epr "nascentd: --chaos requires --upstream ADDR@.";
          1
      | Some up -> (
          let resolve host =
            if host = "" || host = "*" then Unix.inet_addr_loopback
            else
              try Unix.inet_addr_of_string host
              with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
          in
          let sockaddr_of = function
            | Server.Client.Uds p -> Unix.ADDR_UNIX p
            | Server.Client.Tcp (h, p) -> Unix.ADDR_INET (resolve h, p)
          in
          match
            let upstream_sa = sockaddr_of (Server.Client.parse_address up) in
            let listen =
              match tcp with
              | Some (h, p) ->
                  Unix.ADDR_INET
                    ((if h = "" || h = "*" then Unix.inet_addr_any
                      else resolve h),
                     p)
              | None -> Unix.ADDR_UNIX socket
            in
            (upstream_sa, listen)
          with
          | exception e ->
              Fmt.epr "nascentd: --chaos setup: %s@." (Printexc.to_string e);
              1
          | upstream_sa, listen ->
              let stopping = ref false in
              let on_signal _ = stopping := true in
              Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
              Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
              Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
              Fmt.epr "nascentd[chaos]: %s proxying %s -> %s@."
                (Netfault.to_string spec)
                (match listen with
                | Unix.ADDR_UNIX p -> p
                | Unix.ADDR_INET (h, p) ->
                    Fmt.str "%s:%d" (Unix.string_of_inet_addr h) p)
                up;
              Netfault.proxy ~listen ~upstream:upstream_sa
                ~stop:(fun () -> !stopping)
                spec;
              Fmt.epr "nascentd[chaos]: stopped@.";
              0))

(* The supervisor: fork before any domain or thread exists, wait,
   restart on abnormal exit. Backoff is Retry's capped exponential
   schedule; a child that stayed up for a healthy stretch resets the
   attempt counter, so a daemon that crashes once a day never waits
   long, while a crash loop backs off to the cap. *)
let supervisor_policy =
  {
    Retry.max_attempts = max_int;
    base_delay_s = 0.1;
    multiplier = 2.0;
    max_delay_s = 5.0;
    jitter = 0.1;
  }

let healthy_uptime_s = 10.0

let supervise serve_child =
  let draining = ref false in
  let child = ref None in
  let forward signal =
    match !child with
    | Some pid -> ( try Unix.kill pid signal with Unix.Unix_error _ -> ())
    | None -> ()
  in
  let on_signal signal _ =
    draining := true;
    forward signal
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (on_signal Sys.sigterm));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (on_signal Sys.sigint));
  let describe = function
    | Unix.WEXITED n -> Printf.sprintf "exit %d" n
    | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
    | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
  in
  let rec loop ~restarts ~attempt =
    if !draining then 0
    else begin
      let born = Mclock.counter () in
      match Unix.fork () with
      | 0 -> exit (serve_child ~restarts)
      | pid ->
          child := Some pid;
          Fmt.epr "nascentd[supervisor]: serving pid %d (restarts=%d)@." pid restarts;
          (* A signal that landed between fork and the assignment above
             set [draining] but had no child to forward to. *)
          if !draining then forward Sys.sigterm;
          let rec wait_child () =
            match Unix.waitpid [] pid with
            | _, status -> status
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_child ()
          in
          let status = wait_child () in
          child := None;
          let uptime = Mclock.elapsed_s born in
          if status = Unix.WEXITED 0 then begin
            Fmt.epr "nascentd[supervisor]: clean exit, ending supervision@.";
            0
          end
          else if !draining then begin
            Fmt.epr "nascentd[supervisor]: child ended during drain (%s)@."
              (describe status);
            match status with Unix.WEXITED n -> n | _ -> 1
          end
          else begin
            let attempt = if uptime >= healthy_uptime_s then 1 else attempt + 1 in
            let delay = Retry.delay_s supervisor_policy ~seed:restarts ~attempt in
            Fmt.epr
              "nascentd[supervisor]: serving process died (%s) after %.1fs; \
               restarting in %.2fs@."
              (describe status) uptime delay;
            Unix.sleepf delay;
            loop ~restarts:(restarts + 1) ~attempt
          end
    end
  in
  loop ~restarts:0 ~attempt:0

let refuse_live_socket path =
  Fmt.epr "nascentd: socket %s in use by a live daemon@." path;
  1

let run_daemon socket tcp_str jobs queue_depth deadline_ms request_fuel
    threshold cooldown_ms trace state_path mem_budget_mb supervise_flag idle_timeout_s io_deadline_s shard_name router_flag
    shard_specs probe_interval_s chaos upstream =
  let tcp =
    match tcp_str with
    | None -> Ok None
    | Some s -> ( match parse_tcp_listen s with
                  | Ok hp -> Ok (Some hp)
                  | Error e -> Error e)
  in
  match tcp with
  | Error e ->
      Fmt.epr "nascentd: %s@." e;
      1
  | Ok tcp -> (
      match chaos with
      | Some chaos_str -> run_chaos socket tcp chaos_str upstream
      | None when Server.socket_in_use socket ->
          (* refused before the supervisor forks or any state loads *)
          refuse_live_socket socket
      | None ->
          let serve_child ~restarts =
            try
              if router_flag then
                serve_router ~restarts socket tcp jobs queue_depth deadline_ms
                  threshold cooldown_ms trace shard_specs probe_interval_s
                  idle_timeout_s io_deadline_s
              else
                serve ~restarts socket tcp jobs queue_depth deadline_ms
                  request_fuel threshold cooldown_ms trace state_path
                  mem_budget_mb idle_timeout_s io_deadline_s shard_name
            with Server.Socket_in_use path ->
              (* a daemon that bound the path after the check above *)
              refuse_live_socket path
          in
          warn_stale_journal_env ();
          if supervise_flag then supervise serve_child
          else serve_child ~restarts:0)

let () =
  let doc = "range-check compile service (Kolte & Wolfe, PLDI 1995)" in
  let info = Cmd.info "nascentd" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run_daemon $ socket_arg $ tcp_arg $ jobs_arg $ queue_arg
      $ deadline_arg $ fuel_arg $ threshold_arg $ cooldown_arg $ trace_arg
      $ state_arg $ mem_arg $ supervise_arg $ idle_arg
      $ io_deadline_arg $ shard_name_arg $ router_arg $ shard_arg
      $ probe_interval_arg $ chaos_arg $ upstream_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
