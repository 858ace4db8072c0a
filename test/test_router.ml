(* The shard router: consistent-hash determinism and balance, the
   cache-locality routing key (envelope stripping), transport-level
   failover between live in-process shards and away from a shard that
   dies mid-exchange, breaker ejection of a dead shard, probe-driven
   re-admission, the all-down terminal error, and the connection pool:
   reuse, one reconnect after a shard restart, no reuse after a garbled
   response or a receive timeout, and a [stop] that leaves no
   connection, fd or shard reader behind.

   The router's handler is exercised directly (it is just a function) —
   the shards behind it are real Server instances on real sockets, so
   forwards, refusals and EOFs are the genuine article. *)

module Server = Nascent_support.Server
module Client = Server.Client
module Router = Nascent_support.Router
module Json = Nascent_support.Json
module Frame = Nascent_support.Frame

let sfield resp key =
  match resp with
  | Json.Obj kvs -> (
      match List.assoc_opt key kvs with
      | Some (Json.Str s) -> s
      | _ -> Alcotest.failf "no string field %S in %s" key (Json.to_string resp))
  | _ -> Alcotest.failf "not an object: %s" (Json.to_string resp)

let bfield resp key =
  match resp with
  | Json.Obj kvs -> (
      match List.assoc_opt key kvs with
      | Some (Json.Bool b) -> b
      | _ -> Alcotest.failf "no bool field %S in %s" key (Json.to_string resp))
  | _ -> Alcotest.failf "not an object: %s" (Json.to_string resp)

(* a shard whose every response is stamped with its own name *)
let marker name =
  {
    Server.handle =
      (fun _ -> Json.Obj [ ("status", Json.Str "ok"); ("shard", Json.Str name) ]);
    status_extra = (fun () -> []);
    workers = Server.Domains;
  }

let shard_of path name = { Router.name; address = Client.Uds path }

let dead_shard name =
  (* an address nothing listens on: connect fails instantly *)
  shard_of
    (Filename.concat (Filename.get_temp_dir_name ())
       (Printf.sprintf "nascent-dead-%d-%s.sock" (Unix.getpid ()) name))
    name

let compile_req i =
  Json.Obj
    [
      ("op", Json.Str "compile");
      ("benchmark", Json.Str "linpackd");
      ("scheme", Json.Str "ALL");
      ("key", Json.Str (Printf.sprintf "k%d" i));
    ]

(* Build a router and stop it when [f] returns, so no test leaves idle
   shard connections behind. *)
let with_router r f = Fun.protect ~finally:(fun () -> Router.stop r) (fun () -> f r)

(* Boot a shard on [path] outside [Test_server.with_server], for tests
   that stop and reboot it on the same socket. *)
let boot path handler =
  let srv = Server.create (Server.default_config ~socket_path:path) handler in
  let t = Thread.create (fun () -> Server.run srv) () in
  Test_server.wait_for_socket path;
  (srv, t)

let halt (srv, t) =
  Server.stop srv;
  Thread.join t

(* The shard's lifetime [connections] and its [open_connections] other
   than the status query's own. *)
let shard_conns path =
  let st =
    Client.with_conn path (fun conn ->
        Test_server.request_exn conn Test_server.status_req)
  in
  (Test_server.ifield st "connections", Test_server.ifield st "open_connections" - 1)

(* A field of the router's own status object. *)
let router_stat r key =
  match List.assoc_opt "router" ((Router.handler r).Server.status_extra ()) with
  | Some st -> Test_server.ifield st key
  | None -> Alcotest.fail "router status lacks \"router\""

(* Poll [cond] for up to 5 s: the shard closes its side of a connection
   on its reader thread, a moment after the router closes its own. *)
let eventually what cond =
  let rec go n =
    if not (cond ()) then
      if n <= 0 then Alcotest.failf "timed out waiting for %s" what
      else begin
        Unix.sleepf 0.01;
        go (n - 1)
      end
  in
  go 500

(* --- ring ------------------------------------------------------------- *)

let names_of shards = List.map (fun s -> s.Router.name) shards

let test_ring_deterministic () =
  let shards = [ dead_shard "a"; dead_shard "b"; dead_shard "c" ] in
  let r1 = Router.create ~shards () in
  let r2 = Router.create ~shards () in
  for i = 0 to 199 do
    let key = Printf.sprintf "key-%d" i in
    Alcotest.(check (list string))
      (Printf.sprintf "route %s identical across instances" key)
      (names_of (Router.route r1 key))
      (names_of (Router.route r2 key))
  done

let test_ring_covers_all_shards () =
  let shards = [ dead_shard "a"; dead_shard "b"; dead_shard "c" ] in
  let r = Router.create ~shards () in
  for i = 0 to 49 do
    let order = names_of (Router.route r (Printf.sprintf "key-%d" i)) in
    Alcotest.(check int) "every distinct shard appears once" 3
      (List.length order);
    Alcotest.(check (list string))
      "failover order is a permutation" [ "a"; "b"; "c" ]
      (List.sort compare order)
  done

let test_ring_balance () =
  let shards = [ dead_shard "a"; dead_shard "b"; dead_shard "c" ] in
  let r = Router.create ~shards () in
  let counts = Hashtbl.create 3 in
  let n = 3000 in
  for i = 0 to n - 1 do
    match Router.route r (Printf.sprintf "key-%d" i) with
    | first :: _ ->
        Hashtbl.replace counts first.Router.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts first.Router.name))
    | [] -> Alcotest.fail "empty route"
  done;
  List.iter
    (fun name ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts name) in
      (* perfectly even would be 1000; demand each shard owns at least
         half its fair share — consistent hashing with 64 points per
         shard is comfortably inside that *)
      if c < n / 6 then
        Alcotest.failf "shard %s owns only %d/%d keys" name c n)
    [ "a"; "b"; "c" ]

(* --- routing key ------------------------------------------------------- *)

let test_shard_key_strips_envelope () =
  let base = compile_req 1 in
  let with_envelope =
    Json.Obj
      [
        ("id", Json.Int 99);
        ("deadline_ms", Json.Int 5000);
        ("tier", Json.Str "auto");
        ("retries", Json.Int 3);
        ("op", Json.Str "compile");
        ("benchmark", Json.Str "linpackd");
        ("scheme", Json.Str "ALL");
        ("key", Json.Str "k1");
      ]
  in
  Alcotest.(check string) "envelope fields do not affect routing"
    (Router.shard_key base)
    (Router.shard_key with_envelope);
  (* only the envelope is stripped: any other field, "lane" included, is
     content *)
  let with_lane =
    match base with
    | Json.Obj fields -> Json.Obj (("lane", Json.Str "bg") :: fields)
    | other -> other
  in
  Alcotest.(check bool) "a non-envelope field is part of the key" true
    (Router.shard_key with_lane <> Router.shard_key base)

let test_shard_key_canonical_order () =
  let a =
    Json.Obj [ ("op", Json.Str "compile"); ("benchmark", Json.Str "mdg") ]
  in
  let b =
    Json.Obj [ ("benchmark", Json.Str "mdg"); ("op", Json.Str "compile") ]
  in
  Alcotest.(check string) "field order is canonicalized" (Router.shard_key a)
    (Router.shard_key b)

let test_shard_key_content_sensitive () =
  if Router.shard_key (compile_req 1) = Router.shard_key (compile_req 2) then
    Alcotest.fail "different content hashed to the same routing key"

(* --- forwarding -------------------------------------------------------- *)

let test_forward_and_failover () =
  Test_server.with_server (marker "a") (fun path_a _ ->
      Test_server.with_server (marker "b") (fun path_b _ ->
          let shards = [ shard_of path_a "a"; shard_of path_b "b" ] in
          with_router (Router.create ~threshold:100 ~shards ()) @@ fun r ->
          let h = Router.handler r in
          (* live forwards land on the ring-first shard *)
          let hits = Hashtbl.create 2 in
          for i = 0 to 19 do
            let resp = h.Server.handle (compile_req i) in
            let s = sfield resp "shard" in
            Hashtbl.replace hits s ();
            let expected =
              match Router.route r (Router.shard_key (compile_req i)) with
              | first :: _ -> first.Router.name
              | [] -> Alcotest.fail "empty route"
            in
            Alcotest.(check string) "ring-first shard answered" expected s
          done;
          Alcotest.(check int) "both shards saw traffic" 2
            (Hashtbl.length hits);
          (* append a dead shard ahead in the ring somewhere: requests
             whose first candidate is dead must fail over to a live
             one, invisibly to the client *)
          with_router
            (Router.create ~threshold:100
               ~shards:(dead_shard "zombie" :: shards)
               ())
          @@ fun r2 ->
          let h2 = Router.handler r2 in
          for i = 0 to 29 do
            let resp = h2.Server.handle (compile_req i) in
            let s = sfield resp "shard" in
            if s <> "a" && s <> "b" then
              Alcotest.failf "request %d answered by %S" i s
          done))

let test_shard_errors_returned_as_is () =
  let erroring =
    {
      Server.handle =
        (fun _ ->
          Json.Obj [ ("code", Json.Str "boom"); ("detail", Json.Str "shard says no") ]);
      status_extra = (fun () -> []);
      workers = Server.Domains;
    }
  in
  Test_server.with_server erroring (fun path _ ->
      with_router (Router.create ~shards:[ shard_of path "a" ] ()) @@ fun r ->
      let resp = (Router.handler r).Server.handle (compile_req 0) in
      (* an error *response* is not a transport failure: no failover,
         no masking — the shard's backpressure belongs to the client *)
      Alcotest.(check string) "error code passed through" "boom"
        (sfield resp "code"))

let test_all_down () =
  let r =
    Router.create ~threshold:3 ~shards:[ dead_shard "a"; dead_shard "b" ] ()
  in
  let resp = (Router.handler r).Server.handle (compile_req 0) in
  Alcotest.(check string) "terminal error" "no-shard" (sfield resp "code");
  Alcotest.(check bool) "retryable" true (bfield resp "retryable")

let test_breaker_ejects_dead_shard () =
  Test_server.with_server (marker "live") (fun path _ ->
      let dead = dead_shard "dead" in
      let live = shard_of path "live" in
      with_router
        (Router.create ~threshold:2 ~cooldown_s:600.0 ~shards:[ dead; live ] ())
      @@ fun r ->
      let h = Router.handler r in
      Alcotest.(check bool) "dead shard starts admitted" true
        (Router.healthy r dead);
      (* enough forwards to hit the dead shard [threshold] times *)
      for i = 0 to 19 do
        let resp = h.Server.handle (compile_req i) in
        Alcotest.(check string) "live shard answers" "live" (sfield resp "shard")
      done;
      Alcotest.(check bool) "dead shard ejected" false (Router.healthy r dead);
      Alcotest.(check bool) "live shard stays admitted" true
        (Router.healthy r live))

let test_probe_readmits () =
  (* boot a shard, eject it by killing it, reboot it on the same
     socket, and watch the probe thread re-admit it *)
  let path = Test_server.fresh_socket () in
  let srv, t = boot path (marker "s0") in
  let shard = shard_of path "s0" in
  let r =
    Router.create ~threshold:1 ~cooldown_s:0.05 ~probe_interval_s:0.05
      ~shards:[ shard ] ()
  in
  Router.start r;
  Fun.protect
    ~finally:(fun () -> Router.stop r)
    (fun () ->
      let h = Router.handler r in
      Alcotest.(check string) "shard serving" "s0"
        (sfield (h.Server.handle (compile_req 0)) "shard");
      (* kill the shard; the next probe (or forward) trips the breaker *)
      Server.stop srv;
      Thread.join t;
      let rec wait_unhealthy n =
        if n <= 0 then Alcotest.fail "dead shard never ejected"
        else if Router.healthy r shard then begin
          ignore (h.Server.handle (compile_req 1));
          Unix.sleepf 0.05;
          wait_unhealthy (n - 1)
        end
      in
      wait_unhealthy 100;
      Alcotest.(check string) "all shards down" "no-shard"
        (sfield (h.Server.handle (compile_req 2)) "code");
      (* reboot on the same socket: a probe must re-admit it *)
      let srv2 = boot path (marker "s0") in
      Fun.protect
        ~finally:(fun () ->
          halt srv2;
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let rec wait_healthy n =
            if n <= 0 then Alcotest.fail "rebooted shard never re-admitted"
            else if not (Router.healthy r shard) then begin
              Unix.sleepf 0.05;
              wait_healthy (n - 1)
            end
          in
          wait_healthy 100;
          Alcotest.(check string) "rebooted shard serving again" "s0"
            (sfield (h.Server.handle (compile_req 3)) "shard")))

(* --- the connection pool ----------------------------------------------- *)

let test_pool_reuses_connections () =
  (* a real router server with 2 workers in front of one shard: 50
     sequential forwards may open at most one shard connection per
     router worker *)
  Test_server.with_server (marker "a") (fun shard_path _ ->
      with_router (Router.create ~shards:[ shard_of shard_path "a" ] ()) @@ fun r ->
      Test_server.with_server
        ~tune:(fun c -> { c with Server.jobs = 2 })
        (Router.handler r)
        (fun router_path _ ->
          let before, _ = shard_conns shard_path in
          Client.with_conn router_path (fun conn ->
              for i = 0 to 49 do
                let resp = Test_server.request_exn conn (compile_req i) in
                Alcotest.(check string) "shard answered" "a" (sfield resp "shard")
              done);
          let after, _ = shard_conns shard_path in
          (* [after] also counts the second status query's connection *)
          let opened = after - before - 1 in
          if opened < 1 || opened > 2 then
            Alcotest.failf "50 forwards opened %d shard connections, want 1..2" opened;
          Alcotest.(check int) "connects counts them" opened (router_stat r "connects");
          Alcotest.(check int) "forwards" 50 (router_stat r "forwards")))

let test_pool_survives_shard_restart () =
  (* the pooled connection dies with the shard; the forward after the
     reboot reconnects once instead of failing over or tripping the
     breaker (threshold 1 would eject on a single recorded failure) *)
  let path = Test_server.fresh_socket () in
  let shard = shard_of path "s0" in
  let old = boot path (marker "old") in
  with_router (Router.create ~threshold:1 ~cooldown_s:600.0 ~shards:[ shard ] ())
  @@ fun r ->
  let h = Router.handler r in
  Alcotest.(check string) "first shard answers" "old"
    (sfield (h.Server.handle (compile_req 0)) "shard");
  halt old;
  let fresh = boot path (marker "new") in
  Fun.protect
    ~finally:(fun () ->
      halt fresh;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check string) "rebooted shard answers on the same path" "new"
        (sfield (h.Server.handle (compile_req 1)) "shard");
      Alcotest.(check int) "no failover" 0 (router_stat r "failovers");
      Alcotest.(check bool) "breaker recorded no failure" true
        (Router.healthy r shard);
      Alcotest.(check int) "one connect per shard incarnation" 2
        (router_stat r "connects"))

(* A hand-rolled NF1 shard that answers the hello, then each request
   with [reply]'s payload, closing the connection where [reply] gives
   none. It serves one connection at a time and counts the connections
   it accepts. *)
let with_raw_shard reply f =
  let path = Test_server.fresh_socket () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 4;
  let accepted = Atomic.make 0 and stop = Atomic.make false in
  let serve fd =
    let dec = Frame.decoder () in
    let rec go () =
      match Test_server.read_one_frame fd dec with
      | Ok (Some fr) -> (
          match if fr.Frame.id = 0 then Some (Json.to_string (Frame.hello ())) else reply fr with
          | Some payload ->
              Test_server.send_raw fd (Frame.encode ~id:fr.Frame.id payload);
              go ()
          | None -> ())
      | Ok None | Error _ -> ()
    in
    (try go () with Unix.Unix_error _ -> ());
    Unix.close fd
  in
  let acceptor =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ lfd ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ ->
              let fd, _ = Unix.accept lfd in
              Atomic.incr accepted;
              serve fd
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path accepted)

(* every request answered with a payload that is not JSON *)
let with_garbling_shard f = with_raw_shard (fun _ -> Some "not json") f

(* A shard that reads the request and dies before it answers: the
   exchange fails on a fresh connection, which is the shard's failure,
   so the router moves the request to the next shard rather than
   returning the closed connection to the client. *)
let test_failover_mid_exchange () =
  with_raw_shard (fun _ -> None) (fun dying accepted ->
      Test_server.with_server (marker "live") (fun live _ ->
          let shards = [ shard_of dying "dying"; shard_of live "live" ] in
          with_router (Router.create ~threshold:100 ~shards ()) @@ fun r ->
          let dying_first req =
            match Router.route r (Router.shard_key req) with
            | first :: _ -> first.Router.name = "dying"
            | [] -> false
          in
          let req = List.find dying_first (List.init 64 compile_req) in
          let resp = (Router.handler r).Server.handle req in
          Alcotest.(check string) "no error" "ok" (sfield resp "status");
          Alcotest.(check string) "the live shard answered" "live" (sfield resp "shard");
          Alcotest.(check int) "the dying shard took the request" 1 (Atomic.get accepted);
          Alcotest.(check int) "one failover" 1 (router_stat r "failovers")))

let test_pool_drops_garbled () =
  with_garbling_shard (fun path accepted ->
      with_router
        (Router.create ~threshold:100 ~forward_timeout_s:5.0
           ~shards:[ shard_of path "g" ] ())
      @@ fun r ->
      let h = Router.handler r in
      for i = 1 to 2 do
        Alcotest.(check string) "garbled response surfaces" "bad-upstream"
          (sfield (h.Server.handle (compile_req i)) "code");
        Alcotest.(check int) "each forward opened its own connection" i
          (Atomic.get accepted)
      done;
      Alcotest.(check int) "connects" 2 (router_stat r "connects"))

(* One error envelope, whichever layer builds it: the service's bad
   request and the router's no-shard and bad-upstream answers carry
   the same fields in the same order. *)
let test_error_envelope_shared () =
  let req =
    Json.Obj
      [
        ("id", Json.Int 7);
        ("op", Json.Str "compile");
        ("benchmark", Json.Str "simple");
        ("kind", Json.Str "QRX");
      ]
  in
  let expect code path =
    let resp = Client.with_conn path (fun conn -> Test_server.request_exn conn req) in
    Alcotest.(check string) "error code" code (sfield resp "code");
    Alcotest.(check (list string))
      (code ^ " envelope")
      [ "id"; "status"; "code"; "retryable"; "detail" ]
      (match resp with Json.Obj kvs -> List.map fst kvs | _ -> [])
  in
  Test_server.with_service (fun path _ -> expect "bad-request" path);
  with_router (Router.create ~shards:[ dead_shard "a" ] ()) (fun r ->
      Test_server.with_server (Router.handler r) (fun path _ -> expect "no-shard" path));
  with_garbling_shard (fun shard _ ->
      with_router (Router.create ~shards:[ shard_of shard "g" ] ()) (fun r ->
          Test_server.with_server (Router.handler r) (fun path _ ->
              expect "bad-upstream" path)))

let test_pool_drops_timed_out () =
  (* a request marked "slow" outwaits the forward timeout; the
     connection it rode must not carry the next forward, or the late
     response would sit in its buffer *)
  let sleepy =
    {
      Server.handle =
        (fun req ->
          if Json.member "slow" req <> None then Thread.delay 1.5;
          Json.Obj [ ("status", Json.Str "ok"); ("shard", Json.Str "s") ]);
      status_extra = (fun () -> []);
      workers = Server.Domains;
    }
  in
  Test_server.with_server sleepy (fun path _ ->
      with_router
        (Router.create ~threshold:100 ~forward_timeout_s:0.5
           ~shards:[ shard_of path "s" ] ())
      @@ fun r ->
      let h = Router.handler r in
      let slow =
        match compile_req 1 with
        | Json.Obj fields -> Json.Obj (("slow", Json.Bool true) :: fields)
        | other -> other
      in
      Alcotest.(check string) "fast forward answers" "s"
        (sfield (h.Server.handle (compile_req 0)) "shard");
      Alcotest.(check string) "slow forward times out" "no-shard"
        (sfield (h.Server.handle slow) "code");
      Alcotest.(check string) "next forward answers" "s"
        (sfield (h.Server.handle (compile_req 2)) "shard");
      Alcotest.(check int) "the timed-out connection was not reused" 2
        (router_stat r "connects"))

let open_fds () =
  if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

let test_stop_closes_idle () =
  Test_server.with_server (marker "a") (fun path _ ->
      (* the fresh shard has accepted nothing yet, so this baseline
         holds no connection of either side *)
      let fds0 = open_fds () in
      let r = Router.create ~shards:[ shard_of path "a" ] () in
      let h = Router.handler r in
      (* two threads forwarding at once may leave two idle connections *)
      let burst () = for i = 0 to 9 do ignore (h.Server.handle (compile_req i)) done in
      List.iter Thread.join [ Thread.create burst (); Thread.create burst () ];
      if snd (shard_conns path) < 1 then Alcotest.fail "no pooled connection to close";
      Router.stop r;
      eventually "the shard's open_connections to reach 0" (fun () ->
          snd (shard_conns path) = 0);
      eventually "the router's fds to be released" (fun () -> open_fds () = fds0);
      (* idempotent *)
      Router.stop r)

let suite =
  [
    Alcotest.test_case "ring is deterministic" `Quick test_ring_deterministic;
    Alcotest.test_case "route covers all shards" `Quick
      test_ring_covers_all_shards;
    Alcotest.test_case "ring balance" `Quick test_ring_balance;
    Alcotest.test_case "shard_key strips envelope" `Quick
      test_shard_key_strips_envelope;
    Alcotest.test_case "shard_key canonical order" `Quick
      test_shard_key_canonical_order;
    Alcotest.test_case "shard_key content sensitive" `Quick
      test_shard_key_content_sensitive;
    Alcotest.test_case "forward and failover" `Quick test_forward_and_failover;
    Alcotest.test_case "shard errors returned as-is" `Quick
      test_shard_errors_returned_as_is;
    Alcotest.test_case "all shards down" `Quick test_all_down;
    Alcotest.test_case "failover when a shard dies mid-exchange" `Quick
      test_failover_mid_exchange;
    Alcotest.test_case "breaker ejects dead shard" `Quick
      test_breaker_ejects_dead_shard;
    Alcotest.test_case "probe re-admits rebooted shard" `Quick
      test_probe_readmits;
    Alcotest.test_case "pool reuses shard connections" `Quick
      test_pool_reuses_connections;
    Alcotest.test_case "pool survives a shard restart" `Quick
      test_pool_survives_shard_restart;
    Alcotest.test_case "pool drops a garbled connection" `Quick
      test_pool_drops_garbled;
    Alcotest.test_case "error envelope is shared" `Quick test_error_envelope_shared;
    Alcotest.test_case "pool drops a timed-out connection" `Quick
      test_pool_drops_timed_out;
    Alcotest.test_case "stop closes idle connections" `Quick
      test_stop_closes_idle;
  ]
