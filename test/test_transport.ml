(* The NF1 transport end to end, on the Unix socket and on TCP: the
   hello handshake, per-connection pipelining with out-of-order
   completion, protocol rejection of legacy/mismatched clients,
   torn-frame containment, the slow-loris I/O deadline,
   client receive timeouts, and — the capstone — every Netfault class
   driven through a real chaos proxy in front of a real server, with
   request_retry recovering each time. *)

module Server = Nascent_support.Server
module Client = Server.Client
module Frame = Nascent_support.Frame
module Netfault = Nascent_netfault.Netfault
module Json = Nascent_support.Json
module Retry = Nascent_support.Retry

let sfield = Test_server.sfield
let ifield = Test_server.ifield
let request_exn = Test_server.request_exn
let status_req = Json.Obj [ ("op", Json.Str "status") ]

let parse_exn = Test_server.parse_exn
let send_raw = Test_server.send_raw
let read_one_frame = Test_server.read_one_frame
let raw_handshake = Test_server.raw_handshake

(* every test here boots its server with a TCP listener on an
   ephemeral port alongside the Unix socket *)
let with_tcp ?(tune = fun c -> c) handler f =
  Test_server.with_server
    ~tune:(fun c -> tune { c with Server.tcp = Some ("127.0.0.1", 0) })
    handler
    (fun path srv ->
      match Server.tcp_port srv with
      | Some port -> f path srv port
      | None -> Alcotest.fail "TCP listener reported no bound port")

let ok_handler =
  {
    Server.handle =
      (fun req ->
        let tag =
          match Json.member "tag" req with Some t -> t | None -> Json.Null
        in
        Json.Obj [ ("status", Json.Str "ok"); ("tag", tag) ]);
    status_extra = (fun () -> []);
    workers = Server.Domains;
  }

(* Run [f] once per listener — on a fresh server each time, so counter
   checks are exact — with the listener's name and raw address. *)
let on_each_listener ?tune handler f =
  List.iter
    (fun (kind, addr_of) ->
      with_tcp ?tune handler (fun path srv port -> f kind path srv (addr_of path port)))
    [
      ("TCP", fun _ port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ("UDS", fun path _ -> Unix.ADDR_UNIX path);
    ]

let tcp_connect port =
  Test_server.raw_connect (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let read_all_raw fd =
  let buf = Bytes.create 4096 in
  let out = Buffer.create 256 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 | (exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)) ->
        Buffer.contents out
    | n ->
        Buffer.add_subbytes out buf 0 n;
        go ()
  in
  go ()

(* --- handshake + pipelining ------------------------------------------- *)

let test_tcp_hello_and_request () =
  with_tcp ok_handler (fun path _ port ->
      let conn = Client.connect_addr (Client.Tcp ("127.0.0.1", port)) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let resp =
            request_exn conn (Json.Obj [ ("id", Json.Int 7); ("op", Json.Str "status") ])
          in
          Alcotest.(check string) "status over TCP" "ok" (sfield resp "status"));
      (* the UDS side speaks the same protocol on the same server *)
      Client.with_conn path (fun c ->
          let resp = request_exn c status_req in
          Alcotest.(check int) "no proto rejects from a correct client" 0
            (ifield resp "proto_rejects")))

let test_pipelining_out_of_order () =
  let slow_fast =
    {
      Server.handle =
        (fun req ->
          (match Json.member "sleep_ms" req with
          | Some (Json.Int ms) -> Thread.delay (float_of_int ms /. 1000.0)
          | _ -> ());
          Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
      workers = Server.Domains;
    }
  in
  with_tcp slow_fast (fun _ _ port ->
      let conn = Client.connect_addr ~recv_timeout_s:10.0 (Client.Tcp ("127.0.0.1", port)) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let slow =
            Client.pipeline_send conn
              (Json.Obj [ ("id", Json.Int 1); ("sleep_ms", Json.Int 400) ])
          in
          let fast =
            Client.pipeline_send conn (Json.Obj [ ("id", Json.Int 2) ])
          in
          let recv_tag () =
            match Client.pipeline_recv conn with
            | Ok (Some (fid, _)) -> fid
            | Ok None -> Alcotest.fail "EOF mid-pipeline"
            | Error _ -> Alcotest.fail "decode error mid-pipeline"
          in
          (* two workers: the fast request finishes and is written back
             while the slow one still sleeps *)
          Alcotest.(check int) "fast response overtakes slow" fast (recv_tag ());
          Alcotest.(check int) "slow response still arrives" slow (recv_tag ())))

(* --- protocol rejection ------------------------------------------------ *)

let test_legacy_client_rejected () =
  on_each_listener ok_handler (fun kind path _ addr ->
      let fd = Test_server.raw_connect addr in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_raw fd (Json.to_string status_req ^ "\n");
          let got = read_all_raw fd in
          (* one clear line, then close *)
          let resp = parse_exn (String.trim got) in
          Alcotest.(check string) (kind ^ ": proto-mismatch code") "proto-mismatch"
            (sfield resp "code"));
      Client.with_conn path (fun c ->
          let resp = request_exn c status_req in
          Alcotest.(check int) (kind ^ ": proto_rejects counted") 1
            (ifield resp "proto_rejects");
          Alcotest.(check int) (kind ^ ": not a frame error") 0
            (ifield resp "frame_errors")))

let test_version_mismatch_rejected () =
  with_tcp ok_handler (fun path _ port ->
      let fd = tcp_connect port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let hello = Frame.encode ~id:0 (Json.to_string (Frame.hello ())) in
          let b = Bytes.of_string hello in
          Bytes.set b 3 '\x02' (* a future protocol version *);
          send_raw fd (Bytes.to_string b);
          let got = read_all_raw fd in
          let resp = parse_exn (String.trim got) in
          Alcotest.(check string) "proto-mismatch code" "proto-mismatch"
            (sfield resp "code"));
      Client.with_conn path (fun c ->
          let resp = request_exn c status_req in
          Alcotest.(check bool) "counted as proto reject" true
            (ifield resp "proto_rejects" >= 1)))

let test_torn_frame_after_hello () =
  on_each_listener ok_handler (fun kind path _ addr ->
      let fd = Test_server.raw_connect addr in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let dec = raw_handshake fd in
          (* a frame whose payload byte was flipped: CRC must catch it *)
          let torn =
            let s = Frame.encode ~id:1 {|{"op":"status"}|} in
            let b = Bytes.of_string s in
            Bytes.set b Frame.header_bytes 'X';
            Bytes.to_string b
          in
          send_raw fd torn;
          (* a greeted connection gets a *framed* error before the
             close, so a pipelining client sees a well-formed stream
             end, not garbage *)
          (match read_one_frame fd dec with
          | Ok (Some f) ->
              let resp = parse_exn f.Frame.payload in
              Alcotest.(check string) (kind ^ ": framed frame-error") "frame-error"
                (sfield resp "code")
          | Ok None -> Alcotest.failf "%s: closed without the framed error" kind
          | Error e ->
              Alcotest.failf "%s: server sent undecodable bytes: %a" kind
                Frame.pp_error e);
          match read_one_frame fd dec with
          | Ok None -> () (* EOF: the connection is terminal *)
          | Ok (Some _) -> Alcotest.failf "%s: connection survived a torn frame" kind
          | Error e ->
              Alcotest.failf "%s: garbage after error: %a" kind Frame.pp_error e);
      Client.with_conn path (fun c ->
          let resp = request_exn c status_req in
          Alcotest.(check bool) (kind ^ ": frame_errors counted") true
            (ifield resp "frame_errors" >= 1)))

let test_oversized_frame_rejected () =
  with_tcp ok_handler (fun path _ port ->
      let fd = tcp_connect port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let dec = raw_handshake fd in
          let forged =
            let b = Bytes.of_string (Frame.encode ~id:1 "x") in
            Bytes.set b 12 '\x7f';
            Bytes.set b 13 '\xff';
            Bytes.set b 14 '\xff';
            Bytes.set b 15 '\xff';
            Bytes.sub_string b 0 Frame.header_bytes
          in
          send_raw fd forged;
          (match read_one_frame fd dec with
          | Ok (Some f) ->
              Alcotest.(check string) "framed frame-error" "frame-error"
                (sfield (parse_exn f.Frame.payload) "code")
          | Ok None -> Alcotest.fail "closed without the framed error"
          | Error e -> Alcotest.failf "undecodable: %a" Frame.pp_error e);
          match read_one_frame fd dec with
          | Ok None -> ()
          | _ -> Alcotest.fail "connection survived an oversized header");
      Client.with_conn path (fun c ->
          let resp = request_exn c status_req in
          Alcotest.(check bool) "frame_errors counted" true
            (ifield resp "frame_errors" >= 1)))

(* --- deadlines ------------------------------------------------------------ *)

let test_io_deadline_cuts_slow_loris () =
  with_tcp
    ~tune:(fun c -> { c with Server.io_deadline_s = Some 0.3 })
    ok_handler
    (fun path _ port ->
      let fd = tcp_connect port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let dec = raw_handshake fd in
          (* start a frame and stall: the mid-frame deadline must cut
             us off rather than hold the reader hostage *)
          let frame = Frame.encode ~id:1 {|{"op":"status"}|} in
          send_raw fd (String.sub frame 0 10);
          let rec drain () =
            match read_one_frame fd dec with
            | Ok (Some _) -> drain ()
            | Ok None -> ()
            | Error e -> Alcotest.failf "garbage at close: %a" Frame.pp_error e
          in
          drain ());
      Client.with_conn path (fun c ->
          let resp = request_exn c status_req in
          Alcotest.(check bool) "io_timeouts counted" true
            (ifield resp "io_timeouts" >= 1)))

(* A one-connection NF1 peer on a fresh Unix socket, hand-rolled so a
   test can misbehave on purpose: [serve fd dec] runs on the accepted
   connection (with a decoder for the client's frames), [f path] runs
   as the client. The accepted fd is closed only after both finish. *)
let with_fake_server serve f =
  let path = Test_server.fresh_socket () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let accepted = ref None in
  let server =
    Thread.create
      (fun () ->
        match Unix.accept lfd with
        | exception _ -> ()
        | fd, _ -> (
            accepted := Some fd;
            try serve fd (Frame.decoder ()) with _ -> ()))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with _ -> ());
      Thread.join server;
      (match !accepted with Some fd -> ( try Unix.close fd with _ -> ()) | None -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let hello_ack = Frame.encode ~id:0 (Json.to_string (Frame.hello ()))

let test_client_recv_timeout () =
  (* a peer that answers the hello and then never again: the client's
     receive deadline must fire instead of hanging forever *)
  with_fake_server
    (fun fd dec ->
      ignore (read_one_frame fd dec);
      send_raw fd hello_ack)
    (fun path ->
      let conn = Client.connect_addr ~recv_timeout_s:0.3 (Client.Uds path) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          match Client.exchange conn status_req with
          | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> ()
          | Ok _ -> Alcotest.fail "silent server produced a response"
          | Error _ -> Alcotest.fail "expected ETIMEDOUT, got a protocol error"))

let test_dribbled_frame_response () =
  (* a peer that writes one byte at a time — the hello-ack and the
     response both: the client's frame reader must reassemble them *)
  let dribble fd s =
    String.iter
      (fun c ->
        ignore (Unix.write fd (Bytes.make 1 c) 0 1);
        Thread.delay 0.002)
      s
  in
  with_fake_server
    (fun fd dec ->
      ignore (read_one_frame fd dec);
      dribble fd hello_ack;
      match read_one_frame fd dec with
      | Ok (Some f) ->
          dribble fd (Frame.encode ~id:f.Frame.id {|{"id": 1, "status": "ok"}|})
      | _ -> ())
    (fun path ->
      Client.with_conn path (fun conn ->
          let resp = request_exn conn (Json.Obj [ ("id", Json.Int 1) ]) in
          Alcotest.(check string) "reassembled" "ok" (sfield resp "status")))

(* --- chaos e2e --------------------------------------------------------- *)

(* Every fault class, through a real proxy in front of a real server,
   on each listener: request_retry must recover every time — the
   faulted connection costs a retry, never an error. Deterministic in
   the seed. *)
let test_chaos_classes_recover () =
  on_each_listener
    ~tune:(fun c -> { c with Server.io_deadline_s = Some 0.3 })
    ok_handler
    (fun kind _ _ upstream ->
      List.iter
        (fun cls ->
          List.iter
            (fun seed ->
              let spec = { Netfault.cls; seed } in
              let listen =
                match upstream with
                | Unix.ADDR_INET _ -> Unix.ADDR_INET (Unix.inet_addr_loopback, 0)
                | Unix.ADDR_UNIX _ -> Unix.ADDR_UNIX (Test_server.fresh_socket ())
              in
              let stop = ref false in
              let proxy_addr = ref None in
              let bound = Mutex.create () in
              let bound_cv = Condition.create () in
              let proxy =
                Thread.create
                  (fun () ->
                    Netfault.proxy ~listen ~upstream
                      ~stop:(fun () -> !stop)
                      ~delay_s:1.0
                      ~on_listen:(fun addr ->
                        Mutex.lock bound;
                        proxy_addr :=
                          Some
                            (match addr with
                            | Unix.ADDR_INET (_, p) -> Printf.sprintf "127.0.0.1:%d" p
                            | Unix.ADDR_UNIX p -> p);
                        Condition.signal bound_cv;
                        Mutex.unlock bound)
                      spec)
                  ()
              in
              Mutex.lock bound;
              while !proxy_addr = None do
                Condition.wait bound_cv bound
              done;
              let addr = Option.get !proxy_addr in
              Mutex.unlock bound;
              let what i = Printf.sprintf "%s %s req %d" kind (Netfault.to_string spec) i in
              Fun.protect
                ~finally:(fun () ->
                  stop := true;
                  Thread.join proxy)
                (fun () ->
                  (* connection 0 is faulted for seed 0; later seeds
                     shift the faulted residue — both paths must end Ok *)
                  for i = 0 to 2 do
                    match
                      Client.request_retry ~recv_timeout_s:2.0 ~seed:i addr
                        (Json.Obj
                           [ ("id", Json.Int i); ("tag", Json.Int (100 + i)) ])
                    with
                    | Ok resp ->
                        Alcotest.(check string) (what i ^ " recovered") "ok"
                          (sfield resp "status")
                    | Error e -> Alcotest.failf "%s failed: %s" (what i) e
                  done))
            [ 0; 1 ])
        Netfault.all_classes)

(* --- a busy TCP port ----------------------------------------------------- *)

(* A second server on a TCP port that is already bound is refused with
   Tcp_in_use before anything is bound: on_ready never runs and no
   socket file appears. *)
let test_busy_tcp_port_refused () =
  with_tcp ok_handler (fun _ _ port ->
      let path = Test_server.fresh_socket () in
      let dup =
        Server.create
          {
            (Server.default_config ~socket_path:path) with
            Server.tcp = Some ("127.0.0.1", port);
          }
          ok_handler
      in
      let ready = Atomic.make false in
      let refused = Atomic.make None in
      let runner =
        Thread.create
          (fun () ->
            try Server.run ~on_ready:(fun () -> Atomic.set ready true) dup
            with Server.Tcp_in_use (host, p) -> Atomic.set refused (Some (host, p)))
          ()
      in
      let rec await n =
        if Atomic.get refused = None && n > 0 then (Unix.sleepf 0.01; await (n - 1))
      in
      await 500;
      (* a server that was not refused is serving: stop it before failing *)
      Server.stop dup;
      Thread.join runner;
      let socket_left = Sys.file_exists path in
      (try Sys.remove path with Sys_error _ -> ());
      Alcotest.(check (option (pair string int)))
        "refused, naming the port" (Some ("127.0.0.1", port)) (Atomic.get refused);
      Alcotest.(check bool) "on_ready never ran" false (Atomic.get ready);
      Alcotest.(check bool) "no socket file" false socket_left)

(* A listener that cannot be set up for any reason but a busy port is
   refused the same clean way: one line naming the listener and the
   reason, nothing bound, no ready signal. 192.0.2.1 (TEST-NET-1) is on
   no interface of any host, so the bind fails locally and nothing goes
   on the wire. *)
let test_unbindable_listener_refused () =
  let refusal cfg =
    let srv = Server.create cfg ok_handler in
    let ready = ref false in
    match Server.run ~on_ready:(fun () -> ready := true) srv with
    | () -> Alcotest.fail "run returned without a refusal"
    | exception Server.Listen_failed reason ->
        Alcotest.(check bool) "on_ready never ran" false !ready;
        reason
  in
  let path = Test_server.fresh_socket () in
  let reason =
    refusal
      { (Server.default_config ~socket_path:path) with Server.tcp = Some ("192.0.2.1", 5000) }
  in
  Alcotest.(check bool)
    (Printf.sprintf "reason names the address: %S" reason)
    true
    (String.starts_with ~prefix:"cannot listen on tcp 192.0.2.1:5000: " reason
    && not (String.contains reason '\n'));
  Alcotest.(check bool) "no socket file" false (Sys.file_exists path);
  let missing = Filename.concat (Filename.concat (Filename.dirname path) "no-such-dir") "x.sock" in
  let reason = refusal (Server.default_config ~socket_path:missing) in
  Alcotest.(check bool)
    (Printf.sprintf "reason names the socket: %S" reason)
    true
    (String.starts_with ~prefix:("cannot listen on socket " ^ missing ^ ": ") reason)

let suite =
  [
    Alcotest.test_case "TCP hello and request" `Quick test_tcp_hello_and_request;
    Alcotest.test_case "pipelining completes out of order" `Quick
      test_pipelining_out_of_order;
    Alcotest.test_case "legacy line client rejected" `Quick
      test_legacy_client_rejected;
    Alcotest.test_case "version mismatch rejected" `Quick
      test_version_mismatch_rejected;
    Alcotest.test_case "torn frame answered framed, then closed" `Quick
      test_torn_frame_after_hello;
    Alcotest.test_case "oversized header rejected" `Quick
      test_oversized_frame_rejected;
    Alcotest.test_case "io deadline cuts slow loris" `Quick
      test_io_deadline_cuts_slow_loris;
    Alcotest.test_case "client recv timeout" `Quick test_client_recv_timeout;
    Alcotest.test_case "dribbled frame response reassembled" `Quick
      test_dribbled_frame_response;
    Alcotest.test_case "chaos classes recover through proxy" `Slow
      test_chaos_classes_recover;
    Alcotest.test_case "busy tcp port refused" `Quick test_busy_tcp_port_refused;
    Alcotest.test_case "unbindable listener refused" `Quick
      test_unbindable_listener_refused;
  ]
