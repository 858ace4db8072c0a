(* nascentd — the MiniF range-check optimizer as a long-running
   service.

   Listens on a Unix-domain socket (and, with --tcp, a TCP port) for
   requests in NF1 frames (see Nascent_support.Frame for the wire
   format, Nascent_support.Server for the envelope and
   Nascent_harness.Service for the operations), fanning compiles over
   worker domains (a --router forwards on worker threads instead)
   behind a bounded admission queue, per-request
   wall-clock deadlines, a per-scheme circuit breaker and a
   content-addressed result cache. Their bounds are constants, each
   set in one place and not on the command line: queue depth,
   deadline, fuel and I/O deadline in Server.default_config, the
   scheme breaker in Service.create, and the shard health breaker and
   probe cadence in Router.create. A request may still carry its own
   "deadline_ms".

   Crash behaviour: a compile is a pure function of (source,
   configuration), so nothing a request computes needs to outlive the
   process — a daemon that dies mid-request restarts clean, its
   breakers re-learn, and the client's retry recomputes. --supervise
   forks the serving process and restarts it on abnormal exit with
   capped backoff, unless it died before its listeners were bound (a
   restart would fail the same way, so supervision ends with the
   child's exit code); --mem-budget-mb arms the Guard memory watchdog
   (shed admissions under pressure, abort the offending request over
   budget). A second daemon pointed at the
   socket of a live one, or at a TCP port already bound, refuses to
   start with a clear error (exit 1) instead of taking it over; so
   does one whose listener cannot be set up at all (an address not on
   this host, a privileged port, an unresolvable host, an unbindable
   socket path).

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
module Router = Nascent_support.Router
open Cmdliner

let default_socket () =
  match Sys.getenv_opt "NASCENT_SOCKET" with
  | Some s when String.trim s <> "" -> s
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "nascentd.sock"

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

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Workers serving requests. A compile daemon runs one domain \
           per worker (default 2); with $(b,--router) the workers are \
           threads of one domain (default 8), since they only wait on \
           shard sockets and each extra domain would add a minor heap \
           to every stop-the-world collection.")

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
           daemon. $(docv) <= 0 or unset disables the watchdog.")

let supervise_arg =
  Arg.(
    value
    & flag
    & info [ "supervise" ]
        ~doc:
          "Fork the serving process and restart it on abnormal exit with \
           capped exponential backoff (SIGTERM/SIGINT are passed through \
           for a clean drain; a clean exit ends supervision). Requests a \
           crashed server admitted are recomputed by the clients' retries. \
           A serving process that exits before its listeners are bound is \
           not restarted: supervision ends with its exit code.")

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
           fail over to the next shard on the ring.")

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

(* One serving process, either role: the Server front (admission
   control, both transports, drain, inline status) with [handler]
   behind it. [start] runs before the listeners bind and [stop] after
   the drain; [ready] runs once every listener is bound, and so does
   the banner: a daemon that cannot bind never says it is listening. *)
let serve ~name ~ready ~start ~stop ~banner cfg handler =
  let server = Server.create cfg handler in
  (* Graceful drain on either termination signal: stop is
     lock-free and signal-safe; run returns once every admitted
     request is answered. *)
  let on_signal _ = Server.stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (* A client vanishing mid-response must not kill the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_ready () =
    Fmt.epr "%s: listening on %s%s (jobs=%d %s queue=%d deadline=%s restarts=%d %s)@."
      name cfg.Server.socket_path
      (match (cfg.Server.tcp, Server.tcp_port server) with
      | Some (h, _), Some p -> Fmt.str " + tcp %s:%d" (if h = "" then "*" else h) p
      | _ -> "")
      cfg.Server.jobs
      (match handler.Server.workers with
      | Server.Domains -> "domains"
      | Server.Threads -> "threads")
      cfg.Server.queue_depth
      (match cfg.Server.default_deadline_s with
      | None -> "none"
      | Some s -> Fmt.str "%gs" s)
      cfg.Server.restarts banner;
    ready ()
  in
  start ();
  Server.run ~on_ready server;
  stop ();
  Fmt.epr "%s: drained, exiting@." name;
  0

(* The compile role: arm the watchdog and serve the compile service. *)
let serve_compile ~ready cfg mem_budget_mb shard_name =
  let mem_bytes =
    match mem_budget_mb with
    | Some mb when mb > 0 -> Some (mb * 1024 * 1024)
    | _ -> None
  in
  Guard.set_mem_budget ~bytes:mem_bytes ();
  let service = Service.create ?shard_name () in
  serve ~name:"nascentd" ~ready ~start:ignore ~stop:ignore
    ~banner:
      (Fmt.str "fuel=%s mem=%s"
         (match cfg.Server.request_fuel with
         | None -> "none"
         | Some f -> string_of_int f)
         (match mem_bytes with
         | None -> "off"
         | Some b -> Fmt.str "%dMB" (b / (1024 * 1024))))
    cfg (Service.handler service)

(* The router role: the Router's forwarding handler instead of the
   compile service. No fuel — forwarding burns no optimizer fuel — and
   its workers are threads that block on shard I/O, so the router
   defaults to more of them than a compile daemon has domains. *)
let router_jobs = 8

let serve_router ~ready cfg shard_specs =
  match shard_specs with
  | [] ->
      Fmt.epr "nascentd: --router needs at least one --shard@.";
      1
  | specs ->
      let shards = List.map parse_shard specs in
      let router = Router.create ~shards () in
      serve ~name:"nascentd[router]" ~ready
        ~start:(fun () -> Router.start router)
        ~stop:(fun () -> Router.stop router)
        ~banner:
          ("shards=" ^ String.concat "," (List.map (fun s -> s.Router.name) shards))
        { cfg with Server.request_fuel = None }
        (Router.handler router)

(* The supervisor: fork before any domain or thread exists, wait,
   restart on abnormal exit. Backoff is Retry's capped exponential
   schedule; a child that stayed up for a healthy stretch resets the
   attempt counter, so a daemon that crashes once a day never waits
   long, while a crash loop backs off to the cap. A child that dies
   before its listeners are bound (a bad argument, a port in use)
   never served, and its successor would fail the same way: that ends
   supervision with the child's exit code. *)
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
  let exit_code = function Unix.WEXITED n -> n | _ -> 1 in
  let rec loop ~restarts ~attempt =
    if !draining then 0
    else begin
      let born = Mclock.counter () in
      (* The child writes one byte once its listeners are bound; the
         byte outlives the child in the pipe. *)
      let ready_r, ready_w = Unix.pipe ~cloexec:true () in
      match Unix.fork () with
      | 0 ->
          Unix.close ready_r;
          let ready () =
            try ignore (Unix.write_substring ready_w "r" 0 1)
            with Unix.Unix_error _ -> ()
          in
          exit (serve_child ~restarts ~ready)
      | pid ->
          Unix.close ready_w;
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
          let served =
            Unix.set_nonblock ready_r;
            match Unix.read ready_r (Bytes.create 1) 0 1 with
            | n -> n = 1
            | exception Unix.Unix_error _ -> false
          in
          Unix.close ready_r;
          let uptime = Mclock.elapsed_s born in
          if status = Unix.WEXITED 0 then begin
            Fmt.epr "nascentd[supervisor]: clean exit, ending supervision@.";
            0
          end
          else if !draining then begin
            Fmt.epr "nascentd[supervisor]: child ended during drain (%s)@."
              (describe status);
            exit_code status
          end
          else if not served then begin
            Fmt.epr
              "nascentd[supervisor]: serving process ended (%s) before its \
               listeners were bound; ending supervision@."
              (describe status);
            exit_code status
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

let run_daemon socket tcp_str jobs trace mem_budget_mb supervise_flag
    idle_timeout_s shard_name router_flag shard_specs =
  match Option.map parse_tcp_listen tcp_str with
  | Some (Error e) ->
      Fmt.epr "nascentd: %s@." e;
      1
  | _ when Server.socket_in_use socket ->
      (* refused before the supervisor forks *)
      refuse_live_socket socket
  | tcp ->
      if trace then begin
        Logs.set_reporter (Logs.format_reporter ());
        Logs.set_level (Some Logs.Info)
      end;
      let serve_child ~restarts ~ready =
        let base = Server.default_config ~socket_path:socket in
        let config ~default_jobs =
          {
            base with
            Server.tcp = Option.map Result.get_ok tcp;
            jobs = max 1 (Option.value jobs ~default:default_jobs);
            restarts;
            idle_timeout_s;
          }
        in
        try
          if router_flag then
            serve_router ~ready (config ~default_jobs:router_jobs) shard_specs
          else
            serve_compile ~ready (config ~default_jobs:base.Server.jobs)
              mem_budget_mb shard_name
        with
        | Server.Socket_in_use path ->
            (* a daemon that bound the path after the check above *)
            refuse_live_socket path
        | Server.Tcp_in_use (host, port) ->
            Fmt.epr "nascentd: tcp port %s:%d in use@."
              (if host = "" then "*" else host) port;
            1
        | Server.Listen_failed reason ->
            Fmt.epr "nascentd: %s@." reason;
            1
      in
      if supervise_flag then supervise serve_child
      else serve_child ~restarts:0 ~ready:ignore

let () =
  let doc = "range-check compile service (Kolte & Wolfe, PLDI 1995)" in
  let info = Cmd.info "nascentd" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run_daemon $ socket_arg $ tcp_arg $ jobs_arg $ trace_arg $ mem_arg
      $ supervise_arg $ idle_arg $ shard_name_arg $ router_arg $ shard_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
