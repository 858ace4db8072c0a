(* The compile service's robustness contract, end to end over a real
   Unix-domain socket: admission control, per-request deadlines,
   handler-crash isolation, the per-scheme circuit breaker, and the
   zero-loss SIGTERM drain (driven here via Server.stop, which is
   exactly what nascentd's signal handler calls).

   Each test boots an in-process server (Server.run on a Thread, real
   worker domains) on a fresh socket and talks to it through the same
   Client module nascentc and the bench target use. *)

module Server = Nascent_support.Server
module Client = Server.Client
module Json = Nascent_support.Json
module Frame = Nascent_support.Frame
module Retry = Nascent_support.Retry
module Guard = Nascent_support.Guard
module Service = Nascent_harness.Service

(* These tests race clients against draining/hung-up servers: broken
   pipes must surface as EPIPE, not kill the test binary. *)
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nascent-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let wait_for_socket path =
  let rec go n =
    if n <= 0 then Alcotest.fail "server socket never appeared"
    else if Sys.file_exists path then ()
    else begin
      Unix.sleepf 0.01;
      go (n - 1)
    end
  in
  go 500

(* Boot a server, run [f path server], then drain it — every test ends
   with the graceful-stop path, so a drain regression fails loudly
   everywhere. *)
let with_server ?(tune = fun c -> c) handler f =
  let path = fresh_socket () in
  let cfg = tune (Server.default_config ~socket_path:path) in
  let srv = Server.create cfg handler in
  let runner = Thread.create (fun () -> Server.run srv) () in
  wait_for_socket path;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join runner;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path srv)

let with_service ?tune ?breaker_threshold ?breaker_cooldown_s f =
  let svc =
    Service.create ?breaker_threshold ?breaker_cooldown_s ()
  in
  with_server ?tune (Service.handler svc) f

(* --- response plumbing -------------------------------------------------- *)

let request_exn conn req =
  match Client.request conn req with
  | Ok resp -> resp
  | Error msg -> Alcotest.failf "request failed: %s" msg

let sfield resp name =
  match Json.str_member name resp with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S: %s" name (Json.to_string resp)

let ifield resp name =
  match Json.int_member name resp with
  | Some n -> n
  | None -> Alcotest.failf "response lacks int field %S: %s" name (Json.to_string resp)

let bfield resp name =
  match Json.bool_member name resp with
  | Some b -> b
  | None -> Alcotest.failf "response lacks bool field %S: %s" name (Json.to_string resp)

let incidents resp =
  match Json.member "incidents" resp with
  | Some (Json.List l) -> l
  | _ -> Alcotest.failf "response lacks incidents list: %s" (Json.to_string resp)

let compile_req ?(id = Json.Int 0) ?(scheme = "LLS") ?fault ?deadline_ms
    ?(run = false) ?oracle ?tier benchmark =
  Json.Obj
    ([
       ("id", id);
       ("op", Json.Str "compile");
       ("benchmark", Json.Str benchmark);
       ("scheme", Json.Str scheme);
       ("run", Json.Bool run);
     ]
    @ (match oracle with None -> [] | Some b -> [ ("oracle", Json.Bool b) ])
    @ (match fault with None -> [] | Some f -> [ ("fault", Json.Str f) ])
    @ (match tier with None -> [] | Some t -> [ ("tier", Json.Str t) ])
    @
    match deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", Json.Int ms) ])

let status_req = Json.Obj [ ("id", Json.Str "st"); ("op", Json.Str "status") ]

(* Pipelined sends and receives, for tests that keep several requests
   in flight on one connection. *)
let send conn req = ignore (Client.pipeline_send conn req)

(* The next response in completion order; [None] on EOF. *)
let recv_opt conn =
  match Client.pipeline_recv conn with
  | Ok r -> Option.map snd r
  | Error (`Garbled msg) -> Alcotest.failf "unparseable response: %s" msg
  | Error (`Frame e) -> Alcotest.failf "undecodable response: %a" Frame.pp_error e

let recv_exn conn =
  match recv_opt conn with
  | Some resp -> resp
  | None -> Alcotest.fail "connection closed before a response"

(* --- raw NF1 plumbing (a hand-rolled client, for hostile sends) -------- *)

let parse_exn s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable JSON %S: %s" s e

(* A raw socket whose reads give up after 5 s, so a server that never
   answers (or never closes) fails the test instead of hanging it. *)
let raw_connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
     Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  fd

let send_raw fd s =
  Frame.write_all ~write:(fun b off len -> Unix.write fd b off len) s

let read_one_frame fd dec =
  Frame.read_frame ~read:(fun b off len -> Unix.read fd b off len) dec

(* perform the hello handshake on a raw socket; return the decoder
   (which may already hold buffered bytes past the ack) *)
let raw_handshake fd =
  send_raw fd (Frame.encode ~id:0 (Json.to_string (Frame.hello ())));
  let dec = Frame.decoder () in
  (match read_one_frame fd dec with
  | Ok (Some f) -> (
      match Frame.check_hello (parse_exn f.Frame.payload) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad hello ack: %s" e)
  | Ok None -> Alcotest.fail "EOF during handshake"
  | Error e -> Alcotest.failf "handshake decode error: %a" Frame.pp_error e);
  dec

(* --- basic request/response --------------------------------------------- *)

let test_compile_ok () =
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let resp =
    request_exn conn (compile_req ~id:(Json.Int 42) ~run:true ~tier:"sync" "vortex")
  in
  Alcotest.(check string) "status" "ok" (sfield resp "status");
  Alcotest.(check int) "code" 0 (ifield resp "code");
  Alcotest.(check int) "id echoed" 42 (ifield resp "id");
  Alcotest.(check string) "scheme used as requested" "LLS" (sfield resp "scheme_used");
  Alcotest.(check bool) "not a fallback" false (bfield resp "fallback");
  Alcotest.(check int) "no incidents" 0 (List.length (incidents resp));
  Alcotest.(check bool) "optimizer removed checks" true
    (ifield resp "checks_after" < ifield resp "checks_before");
  (match Json.member "run" resp with
  | Some run ->
      Alcotest.(check bool) "run reported checks" true (ifield run "checks" >= 0)
  | None -> Alcotest.fail "run outcome missing despite run:true");
  (* same request again: served from the result cache *)
  let again =
    request_exn conn (compile_req ~id:(Json.Int 43) ~run:true ~tier:"auto" "vortex")
  in
  Alcotest.(check bool) "second compile cached" true (bfield again "cached");
  (* "tier" is accepted for older clients and changes nothing *)
  Alcotest.(check string) "auto compiles the requested scheme" "LLS"
    (sfield again "scheme_used");
  Alcotest.(check bool) "no tier in the response" true (Json.member "tier" again = None)

(* The --oracle axis end to end: a clean compile returns the
   translation-validation certificate; an unsound deletion (the fault
   class no pass rule can see) refuses it, degrades the response, and
   surfaces a "validate" incident. *)
let test_compile_oracle_certificate () =
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let resp = request_exn conn (compile_req ~id:(Json.Int 1) ~oracle:true "trfd") in
  Alcotest.(check string) "status ok" "ok" (sfield resp "status");
  Alcotest.(check bool) "oracle echoed" true (bfield resp "oracle");
  Alcotest.(check bool) "certificate granted" true (bfield resp "validated");
  let plain = request_exn conn (compile_req ~id:(Json.Int 2) "trfd") in
  Alcotest.(check bool) "no certificate without oracle" true
    (Json.member "validated" plain = Some Json.Null);
  let bad =
    request_exn conn
      (compile_req ~id:(Json.Int 3) ~scheme:"NI" ~oracle:true
         ~fault:"unsound-eliminate:1" "trfd")
  in
  Alcotest.(check string) "refused certificate degrades" "degraded"
    (sfield bad "status");
  Alcotest.(check int) "degraded exit code" 4 (ifield bad "code");
  Alcotest.(check bool) "fault applied" true (ifield bad "faults_injected" > 0);
  Alcotest.(check bool) "certificate refused" false (bfield bad "validated");
  Alcotest.(check bool) "validation incident surfaced" true
    (List.exists
       (fun i -> Json.str_member "pass" i = Some "validate")
       (incidents bad))

let test_status_shape () =
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  ignore (request_exn conn (compile_req "simple"));
  let st = request_exn conn status_req in
  Alcotest.(check string) "status ok" "ok" (sfield st "status");
  Alcotest.(check string) "id echoed" "st" (sfield st "id");
  Alcotest.(check bool) "uptime present" true
    (Json.float_member "uptime_s" st <> None);
  Alcotest.(check bool) "not draining" false (bfield st "draining");
  Alcotest.(check int) "served the compile" 1 (ifield st "served");
  Alcotest.(check int) "no worker restarts" 0 (ifield st "worker_restarts");
  Alcotest.(check int) "service counted it" 1 (ifield st "compiles");
  List.iter
    (fun f ->
      if Json.member f st = None then
        Alcotest.failf "status lacks field %S: %s" f (Json.to_string st))
    [
      "jobs"; "queue_depth"; "queue_capacity"; "inflight"; "shed"; "timeouts";
      "internal_errors"; "bad_requests"; "connections"; "breakers"; "cache";
      "degraded"; "fallbacks"; "incidents_total"; "breaker_trips";
    ]

let test_bad_inputs () =
  with_service @@ fun path _ ->
  (* a frame whose payload is not JSON *)
  let fd = raw_connect (Unix.ADDR_UNIX path) in
  (Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
   let dec = raw_handshake fd in
   send_raw fd (Frame.encode ~id:1 "this is not json");
   match read_one_frame fd dec with
   | Ok None -> Alcotest.fail "no response to bad frame"
   | Error e -> Alcotest.failf "undecodable error response: %a" Frame.pp_error e
   | Ok (Some f) ->
       Alcotest.(check int) "tagged with the bad frame's id" 1 f.Frame.id;
       Alcotest.(check string) "bad-request" "bad-request"
         (sfield (parse_exn f.Frame.payload) "code"));
  Client.with_conn path @@ fun conn ->
  (* unknown op *)
  let resp = request_exn conn (Json.Obj [ ("op", Json.Str "frobnicate") ]) in
  Alcotest.(check string) "bad-op" "bad-op" (sfield resp "code");
  (* compile of garbage source: structured error, not a crash *)
  let resp =
    request_exn conn
      (Json.Obj
         [ ("op", Json.Str "compile"); ("source", Json.Str "program ) garbage (") ])
  in
  Alcotest.(check string) "error status" "error" (sfield resp "status");
  Alcotest.(check string) "invalid-program" "invalid-program" (sfield resp "code");
  (* unknown scheme name *)
  let resp = request_exn conn (compile_req ~scheme:"ZZZ" "simple") in
  Alcotest.(check string) "bad scheme rejected" "bad-request" (sfield resp "code");
  (* unknown tier mode: only the legacy "auto" and "sync" are accepted *)
  let resp = request_exn conn (compile_req ~tier:"turbo" "simple") in
  Alcotest.(check string) "unknown tier mode rejected" "bad-request" (sfield resp "code");
  (* the daemon shrugged all of that off *)
  let st = request_exn conn status_req in
  Alcotest.(check int) "bad frame counted" 1 (ifield st "bad_requests");
  Alcotest.(check int) "no worker restarts" 0 (ifield st "worker_restarts")

(* --- worker-crash isolation --------------------------------------------- *)

let test_handler_exception_isolated () =
  let handler =
    {
      Server.handle =
        (fun req ->
          if Json.member "boom" req <> None then failwith "kaboom"
          else Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
      workers = Server.Domains;
    }
  in
  with_server ~tune:(fun c -> { c with Server.jobs = 1 }) handler @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let boom =
    request_exn conn (Json.Obj [ ("id", Json.Int 1); ("boom", Json.Bool true) ])
  in
  Alcotest.(check string) "answered as internal error" "internal" (sfield boom "code");
  Alcotest.(check bool) "exception text surfaced" true
    (let d = sfield boom "detail" in
     String.length d >= 6
     && List.exists
          (fun i -> String.sub d i 6 = "kaboom")
          (List.init (String.length d - 5) Fun.id));
  (* the SAME worker (jobs=1) keeps serving *)
  let ok = request_exn conn (Json.Obj [ ("id", Json.Int 2) ]) in
  Alcotest.(check string) "worker survived" "ok" (sfield ok "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "counted as internal error" 1 (ifield st "internal_errors");
  Alcotest.(check int) "no restart needed (caught in process)" 0
    (ifield st "worker_restarts")

(* --- deadlines ----------------------------------------------------------- *)

let test_deadline_cuts_hung_request () =
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let resp =
    request_exn conn
      (Json.Obj
         [ ("id", Json.Int 9); ("op", Json.Str "burn"); ("deadline_ms", Json.Int 150) ])
  in
  Alcotest.(check string) "deadline response" "deadline" (sfield resp "code");
  Alcotest.(check int) "id echoed" 9 (ifield resp "id");
  (* the worker was freed: an ordinary compile still goes through *)
  let ok = request_exn conn (compile_req "simple") in
  Alcotest.(check string) "worker free after timeout" "ok" (sfield ok "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "timeout counted" 1 (ifield st "timeouts")

(* A request whose deadline expires while it is still QUEUED is
   answered without burning a worker on it. *)
let test_deadline_counts_queue_wait () =
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let open_gate = ref false in
  let release () =
    Mutex.lock gate;
    open_gate := true;
    Condition.broadcast cond;
    Mutex.unlock gate
  in
  let handler =
    {
      Server.handle =
        (fun req ->
          (if Json.member "block" req <> None then begin
             Mutex.lock gate;
             while not !open_gate do
               Condition.wait cond gate
             done;
             Mutex.unlock gate
           end);
          Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
      workers = Server.Domains;
    }
  in
  with_server ~tune:(fun c -> { c with Server.jobs = 1 }) handler @@ fun path _ ->
  Fun.protect ~finally:release @@ fun () ->
  Client.with_conn path @@ fun conn ->
  (* occupy the only worker... *)
  send conn (Json.Obj [ ("id", Json.Int 1); ("block", Json.Bool true) ]);
  (* ...queue a request with a deadline shorter than the block... *)
  send conn (Json.Obj [ ("id", Json.Int 2); ("deadline_ms", Json.Int 100) ]);
  Unix.sleepf 0.3;
  (* ...and only then release the worker. *)
  release ();
  let r1 = recv_exn conn in
  let r2 = recv_exn conn in
  let find id =
    if ifield r1 "id" = id then r1
    else if ifield r2 "id" = id then r2
    else Alcotest.failf "no response with id %d" id
  in
  Alcotest.(check string) "blocked request served" "ok" (sfield (find 1) "status");
  Alcotest.(check string) "queued-past-deadline answered with deadline" "deadline"
    (sfield (find 2) "code")

(* --- admission control ---------------------------------------------------- *)

let test_overload_sheds_with_retryable () =
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let open_gate = ref false in
  let release () =
    Mutex.lock gate;
    open_gate := true;
    Condition.broadcast cond;
    Mutex.unlock gate
  in
  let handler =
    {
      Server.handle =
        (fun _ ->
          Mutex.lock gate;
          while not !open_gate do
            Condition.wait cond gate
          done;
          Mutex.unlock gate;
          Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
      workers = Server.Domains;
    }
  in
  with_server
    ~tune:(fun c -> { c with Server.jobs = 1; queue_depth = 2 })
    handler
  @@ fun path _ ->
  Fun.protect ~finally:release @@ fun () ->
  Client.with_conn path @@ fun conn ->
  Client.with_conn path @@ fun stconn ->
  (* one in flight (wait until the worker picked it up)... *)
  send conn (Json.Obj [ ("id", Json.Int 1) ]);
  let rec wait_inflight n =
    if n = 0 then Alcotest.fail "request never went in flight";
    let st = request_exn stconn status_req in
    if ifield st "inflight" <> 1 then begin
      Unix.sleepf 0.01;
      wait_inflight (n - 1)
    end
  in
  wait_inflight 500;
  (* ...two filling the queue to capacity... *)
  send conn (Json.Obj [ ("id", Json.Int 2) ]);
  send conn (Json.Obj [ ("id", Json.Int 3) ]);
  let rec wait_queued n =
    if n = 0 then Alcotest.fail "queue never filled";
    let st = request_exn stconn status_req in
    if ifield st "queue_depth" <> 2 then begin
      Unix.sleepf 0.01;
      wait_queued (n - 1)
    end
  in
  wait_queued 500;
  (* ...and one over: shed immediately, retryable. *)
  send conn (Json.Obj [ ("id", Json.Int 4) ]);
  let shed = recv_exn conn in
  Alcotest.(check int) "the overflow request was the one shed" 4 (ifield shed "id");
  Alcotest.(check string) "overloaded" "overloaded" (sfield shed "code");
  Alcotest.(check bool) "marked retryable" true (bfield shed "retryable");
  (* status stayed answerable throughout (it already did, above); now
     drain the admitted three *)
  release ();
  let answered = List.init 3 (fun _ -> ifield (recv_exn conn) "id") in
  Alcotest.(check (list int)) "admitted requests all served" [ 1; 2; 3 ]
    (List.sort compare answered);
  let st = request_exn stconn status_req in
  Alcotest.(check int) "shed counted" 1 (ifield st "shed")

(* The client side of the same story: request_retry backs off against
   retryable shedding and succeeds once capacity frees up. *)
let test_client_retries_through_overload () =
  let busy = Atomic.make 3 in
  let handler =
    {
      Server.handle =
        (fun _ ->
          if Atomic.fetch_and_add busy (-1) > 0 then
            Json.Obj
              [
                ("status", Json.Str "error");
                ("code", Json.Str "overloaded");
                ("retryable", Json.Bool true);
                ("detail", Json.Str "simulated overload");
              ]
          else Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
      workers = Server.Domains;
    }
  in
  with_server handler @@ fun path _ ->
  let slept = ref [] in
  let policy = { Retry.default with Retry.base_delay_s = 0.001; max_delay_s = 0.002 } in
  (match
     Client.request_retry ~policy
       ~sleep:(fun s -> slept := s :: !slept)
       ~seed:7 path
       (Json.Obj [ ("op", Json.Str "noop") ])
   with
  | Ok resp -> Alcotest.(check string) "eventually ok" "ok" (sfield resp "status")
  | Error msg -> Alcotest.failf "retries should have succeeded: %s" msg);
  Alcotest.(check int) "three backoffs before success" 3 (List.length !slept);
  (* and a hard cap: against a permanently-shedding server it gives up *)
  Atomic.set busy max_int;
  match
    Client.request_retry
      ~policy:{ policy with Retry.max_attempts = 2 }
      ~sleep:ignore ~seed:8 path
      (Json.Obj [ ("op", Json.Str "noop") ])
  with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error msg ->
      Alcotest.(check bool) "reports the attempt count" true
        (String.length msg > 0 && msg.[0] = 'g' (* "gave up after ..." *))

(* A daemon that hangs up mid-exchange (draining, restarting) is a
   RETRYABLE failure — requests are idempotent — not an exit-7 fatal.
   Simulated with a raw listener that accepts and immediately closes:
   every attempt ends in EPIPE/ECONNRESET or EOF-before-response, and
   the client must burn through all its attempts rather than give up
   on the first. *)
let test_retry_classifies_midexchange_close () =
  let path = fresh_socket () in
  let attempts = 3 in
  let lfd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind lfd (ADDR_UNIX path);
  Unix.listen lfd 8;
  let hangup_server =
    Thread.create
      (fun () ->
        for _ = 1 to attempts do
          let cfd, _ = Unix.accept lfd in
          Unix.close cfd
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join hangup_server;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let policy = { Retry.default with Retry.max_attempts = attempts } in
      match
        Client.request_retry ~policy ~sleep:ignore ~seed:3 path
          (compile_req "simple")
      with
      | Ok _ -> Alcotest.fail "no response should ever arrive"
      | Error msg ->
          (* a fatal classification would read "gave up after 1" *)
          let expected = Printf.sprintf "gave up after %d attempt(s)" attempts in
          Alcotest.(check bool)
            (Printf.sprintf "all %d attempts used (got: %s)" attempts msg)
            true
            (String.length msg >= String.length expected
            && String.sub msg 0 (String.length expected) = expected))

(* --- circuit breaker ------------------------------------------------------ *)

let test_breaker_trips_and_recovers () =
  with_service ~breaker_threshold:2 ~breaker_cooldown_s:0.4 @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let faulty ?deadline_ms id =
    request_exn conn
      (compile_req ~id:(Json.Int id) ~scheme:"CS" ~fault:"drop-check:7" ?deadline_ms
         "vortex")
  in
  (* two consecutive incident-bearing compiles trip the CS breaker *)
  let r1 = faulty 1 in
  Alcotest.(check string) "first fault degrades" "degraded" (sfield r1 "status");
  Alcotest.(check string) "still compiled at CS" "CS" (sfield r1 "scheme_used");
  Alcotest.(check bool) "incidents attached" true (incidents r1 <> []);
  let r2 = faulty 2 in
  Alcotest.(check string) "breaker open after threshold" "open" (sfield r2 "breaker");
  (* tripped: requests for CS are routed to the NI floor *)
  let r3 = faulty 3 in
  Alcotest.(check bool) "fallback engaged" true (bfield r3 "fallback");
  Alcotest.(check string) "compiled at the NI floor" "NI" (sfield r3 "scheme_used");
  Alcotest.(check string) "fallback is degraded" "degraded" (sfield r3 "status");
  Alcotest.(check bool) "fallback response carries an incident" true
    (incidents r3 <> []);
  (* cooldown, then a healthy probe closes the breaker *)
  Unix.sleepf 0.6;
  let probe =
    request_exn conn (compile_req ~id:(Json.Int 4) ~scheme:"CS" "vortex")
  in
  Alcotest.(check bool) "probe ran at the real scheme" false (bfield probe "fallback");
  Alcotest.(check string) "probe compiled at CS" "CS" (sfield probe "scheme_used");
  Alcotest.(check string) "probe success closes the breaker" "closed"
    (sfield probe "breaker");
  let after =
    request_exn conn (compile_req ~id:(Json.Int 5) ~scheme:"CS" "vortex")
  in
  Alcotest.(check string) "recovered: CS served normally" "ok" (sfield after "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "trip counted" 1 (ifield st "breaker_trips");
  Alcotest.(check bool) "fallbacks counted" true (ifield st "fallbacks" >= 1)

(* --- the acceptance run: 100 concurrent requests under fault load -------- *)

let test_hundred_concurrent_faulted_requests () =
  with_service
    ~tune:(fun c -> { c with Server.jobs = 4; queue_depth = 128 })
    ~breaker_threshold:3 ~breaker_cooldown_s:0.05
  @@ fun path _ ->
  let n_threads = 10 and per_thread = 10 in
  let results : (int * Json.t) list Array.t = Array.make n_threads [] in
  let mk_request t i =
    let id = (t * per_thread) + i in
    match id mod 5 with
    | 0 -> compile_req ~id:(Json.Int id) ~scheme:"CS" ~fault:"drop-check:7" "vortex"
    | 1 -> compile_req ~id:(Json.Int id) ~scheme:"SE" ~fault:"unsafe-insert:3" "simple"
    | 2 -> compile_req ~id:(Json.Int id) ~scheme:"LLS" ~run:true "trfd"
    | 3 -> compile_req ~id:(Json.Int id) ~scheme:"ALL" ~fault:"break-edge:5" "qcd"
    | _ -> compile_req ~id:(Json.Int id) ~scheme:"LI" "mdg"
  in
  let client t =
    Client.with_conn path @@ fun conn ->
    for i = 0 to per_thread - 1 do
      let id = (t * per_thread) + i in
      let resp = request_exn conn (mk_request t i) in
      results.(t) <- (id, resp) :: results.(t)
    done
  in
  let threads = List.init n_threads (fun t -> Thread.create client t) in
  List.iter Thread.join threads;
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) "every request answered" (n_threads * per_thread)
    (List.length all);
  List.iter
    (fun (id, resp) ->
      Alcotest.(check int) "response id matches request" id (ifield resp "id");
      (match sfield resp "status" with
      | "ok" -> ()
      | "degraded" ->
          (* the acceptance criterion: degradation is never silent *)
          if incidents resp = [] then
            Alcotest.failf "degraded response %d carries no incident: %s" id
              (Json.to_string resp)
      | other -> Alcotest.failf "request %d failed outright (%s): %s" id other
                   (Json.to_string resp));
      match Json.member "run" resp with
      | Some run ->
          Alcotest.(check (option string)) "no interpreter trap" None
            (Json.str_member "trap" run)
      | None -> ())
    all;
  (* injected faults actually exercised the degradation path... *)
  let degraded =
    List.length (List.filter (fun (_, r) -> sfield r "status" = "degraded") all)
  in
  Alcotest.(check bool) "fault classes produced degraded responses" true (degraded > 0);
  (* ...and the daemon survived the whole barrage *)
  Client.with_conn path @@ fun conn ->
  let st = request_exn conn status_req in
  Alcotest.(check int) "zero worker restarts" 0 (ifield st "worker_restarts");
  Alcotest.(check int) "zero internal errors" 0 (ifield st "internal_errors");
  Alcotest.(check int) "all 100 served" 100 (ifield st "served");
  Alcotest.(check bool) "incidents were recorded" true (ifield st "incidents_total" > 0)

(* --- graceful drain -------------------------------------------------------- *)

let test_drain_loses_nothing () =
  let handler =
    {
      Server.handle =
        (fun req ->
          Unix.sleepf 0.05;
          Json.Obj
            [
              ("status", Json.Str "ok");
              ("echo", Option.value ~default:Json.Null (Json.member "id" req));
            ]);
      status_extra = (fun () -> []);
      workers = Server.Domains;
    }
  in
  with_server ~tune:(fun c -> { c with Server.jobs = 2 }) handler @@ fun path srv ->
  let n = 10 in
  let conn = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  for i = 0 to n - 1 do
    send conn (Json.Obj [ ("id", Json.Int i) ])
  done;
  (* wait until every request is admitted (queued, running or done),
     then pull the plug mid-flight *)
  Client.with_conn path (fun stconn ->
      let rec wait k =
        if k = 0 then Alcotest.fail "requests never all admitted";
        let st = request_exn stconn status_req in
        if ifield st "queue_depth" + ifield st "inflight" + ifield st "served" < n
        then begin
          Unix.sleepf 0.01;
          wait (k - 1)
        end
      in
      wait 1000);
  Server.stop srv;
  (* a request sent AFTER stop is shed, not silently dropped *)
  (try send conn (Json.Obj [ ("id", Json.Str "late") ])
   with Unix.Unix_error _ -> () (* connection may already be shut down *));
  let rec collect acc =
    if List.length acc >= n then acc
    else
      match recv_opt conn with
      | None -> acc
      | Some resp ->
          if Json.member "echo" resp <> None then collect (ifield resp "id" :: acc)
          else (
            (* the late request's shed notice *)
            Alcotest.(check string) "late request shed" "shutting-down"
              (sfield resp "code");
            collect acc)
  in
  let served = collect [] in
  Alcotest.(check (list int)) "zero in-flight loss across drain"
    (List.init n Fun.id) (List.sort compare served);
  Alcotest.(check bool) "socket file removed after drain" true
    (not (Sys.file_exists path))

(* One connection per request is nascentc's connection discipline: the
   server must release each one (fd, conn record, reader thread) once
   the client hangs up and its responses are out — a long-running
   daemon may not hold resources proportional to lifetime traffic. *)
let test_connection_resources_released () =
  with_service @@ fun path _ ->
  let churn = 8 in
  for i = 1 to churn do
    Client.with_conn path @@ fun conn ->
    ignore (request_exn conn (compile_req ~id:(Json.Int i) "simple"))
  done;
  Client.with_conn path @@ fun stconn ->
  (* EOF is noticed asynchronously by the reader threads: poll *)
  let rec poll n =
    let st = request_exn stconn status_req in
    if ifield st "open_connections" <= 1 then st
    else if n = 0 then
      Alcotest.failf "connections never released: %d still open after churn"
        (ifield st "open_connections")
    else begin
      Unix.sleepf 0.02;
      poll (n - 1)
    end
  in
  let st = poll 250 in
  Alcotest.(check int) "every churned connection was accepted" (churn + 1)
    (ifield st "connections");
  Alcotest.(check int) "none of the served requests were lost" churn
    (ifield st "served")

(* --- memory watchdog ---------------------------------------------------- *)

let test_mem_pressure_sheds_admission () =
  Fun.protect ~finally:(fun () -> Guard.set_mem_budget ~bytes:None ())
  @@ fun () ->
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  (* a 1-byte budget: any heap is over it, so admission must shed *)
  Guard.set_mem_budget ~bytes:(Some 1) ();
  let shed = request_exn conn (compile_req "vortex") in
  Alcotest.(check string) "shed, not served" "error" (sfield shed "status");
  Alcotest.(check string) "shed as overloaded" "overloaded" (sfield shed "code");
  Alcotest.(check bool) "shed is retryable" true (bfield shed "retryable");
  (* pressure relieved: the same request is admitted and served — and
     status (answered off the admission path) stays reachable throughout *)
  Guard.set_mem_budget ~bytes:None ();
  let ok = request_exn conn (compile_req "vortex") in
  Alcotest.(check string) "served once pressure clears" "ok" (sfield ok "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "shed admissions counted" 1 (ifield st "mem_shed");
  Alcotest.(check int) "no request was aborted" 0 (ifield st "mem_aborts")

let test_mem_abort_is_retryable () =
  (* a handler that trips the watchdog mid-request: the server must
     answer mem-pressure/retryable and count the abort, not die *)
  let handler =
    {
      Server.handle =
        (fun req ->
          match Json.str_member "mode" req with
          | Some "boom" -> raise (Guard.Mem_exceeded "major heap over budget")
          | _ -> Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
      workers = Server.Domains;
    }
  in
  with_server handler @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let boom =
    request_exn conn
      (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "x"); ("mode", Json.Str "boom") ])
  in
  Alcotest.(check string) "aborted request errors" "error" (sfield boom "status");
  Alcotest.(check string) "abort code is mem-pressure" "mem-pressure"
    (sfield boom "code");
  Alcotest.(check bool) "abort is retryable" true (bfield boom "retryable");
  (* the worker survives the abort *)
  let ok =
    request_exn conn (Json.Obj [ ("id", Json.Int 2); ("op", Json.Str "x") ])
  in
  Alcotest.(check string) "worker serves the next request" "ok" (sfield ok "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "abort counted" 1 (ifield st "mem_aborts");
  Alcotest.(check int) "nothing shed at admission" 0 (ifield st "mem_shed")

(* --- socket ownership ------------------------------------------------------ *)

(* A second server on a live daemon's socket path is refused before it
   binds anything: the first keeps its socket file and keeps answering. *)
let service_server path =
  Server.create (Server.default_config ~socket_path:path) (Service.handler (Service.create ()))

let test_live_socket_refused () =
  with_service @@ fun path _ ->
  let dup = service_server path in
  let refused = Atomic.make None in
  let runner =
    Thread.create
      (fun () ->
        try Server.run dup with Server.Socket_in_use p -> Atomic.set refused (Some p))
      ()
  in
  let rec await n =
    if Atomic.get refused = None && n > 0 then (Unix.sleepf 0.01; await (n - 1))
  in
  await 500;
  (* a server that was not refused is serving: stop it before failing *)
  Server.stop dup;
  Thread.join runner;
  Alcotest.(check (option string)) "refused, naming the path" (Some path) (Atomic.get refused);
  Alcotest.(check bool) "socket file still in place" true (Sys.file_exists path);
  let st = Client.with_conn path (fun conn -> request_exn conn status_req) in
  Alcotest.(check string) "first server still answers" "ok" (sfield st "status")

(* A socket file with no listener behind it (what kill -9 leaves) is
   stale: the next server replaces it and serves. *)
let test_stale_socket_replaced () =
  let path = fresh_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  Alcotest.(check bool) "stale file planted" true (Sys.file_exists path);
  Alcotest.(check bool) "stale file is not in use" false (Server.socket_in_use path);
  let srv = service_server path in
  let runner = Thread.create (fun () -> Server.run srv) () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join runner;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let rec await n =
    if not (Server.socket_in_use path) then
      if n <= 0 then Alcotest.fail "server never bound over the stale file"
      else (Unix.sleepf 0.01; await (n - 1))
  in
  await 500;
  let st = Client.with_conn path (fun conn -> request_exn conn status_req) in
  Alcotest.(check string) "replacement answers" "ok" (sfield st "status")

(* --- fixed bounds ------------------------------------------------------------ *)

(* The serving bounds are constants; pin the two a client can read: the
   admission bound in status and the frame cap in the hello-ack. *)
let test_default_bounds_visible () =
  with_service @@ fun path _ ->
  let st = Client.with_conn path (fun conn -> request_exn conn status_req) in
  Alcotest.(check int) "queue capacity" 64 (ifield st "queue_capacity");
  let fd = raw_connect (Unix.ADDR_UNIX path) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send_raw fd (Frame.encode ~id:0 (Json.to_string (Frame.hello ())));
  match read_one_frame fd (Frame.decoder ()) with
  | Ok (Some f) ->
      Alcotest.(check int) "hello-ack frame cap" Frame.default_max_payload
        (ifield (parse_exn f.Frame.payload) "max_frame_bytes")
  | Ok None -> Alcotest.fail "EOF during handshake"
  | Error e -> Alcotest.failf "handshake decode error: %a" Frame.pp_error e

let suite =
  [
    Util.tc "compile request round-trips" test_compile_ok;
    Util.tc "oracle certificate round-trips" test_compile_oracle_certificate;
    Util.tc "status reports the full picture" test_status_shape;
    Util.tc "bad inputs get structured errors" test_bad_inputs;
    Util.tc "handler exception is isolated" test_handler_exception_isolated;
    Util.tc "deadline frees a hung worker" test_deadline_cuts_hung_request;
    Util.tc "deadline counts queue wait" test_deadline_counts_queue_wait;
    Util.tc "overload sheds retryably" test_overload_sheds_with_retryable;
    Util.tc "client retries through overload" test_client_retries_through_overload;
    Util.tc "mid-exchange close is retryable" test_retry_classifies_midexchange_close;
    Util.tc "connection resources released" test_connection_resources_released;
    Util.tc "breaker trips and recovers" test_breaker_trips_and_recovers;
    Util.tc "drain loses nothing" test_drain_loses_nothing;
    Util.tc "mem pressure sheds admission" test_mem_pressure_sheds_admission;
    Util.tc "mem abort is retryable" test_mem_abort_is_retryable;
    Util.tc "live socket refused" test_live_socket_refused;
    Util.tc "100 concurrent faulted requests" test_hundred_concurrent_faulted_requests;
    Util.tc "stale socket replaced" test_stale_socket_replaced;
    Util.tc "default bounds visible to clients" test_default_bounds_visible;
  ]
