(* The shard router: consistent-hash determinism and balance, the
   cache-locality routing key (envelope stripping), transport-level
   failover between live in-process shards, breaker ejection of a dead
   shard, probe-driven re-admission, and the all-down terminal error.

   The router's handler is exercised directly (it is just a function) —
   the shards behind it are real Server instances on real sockets, so
   forwards, refusals and EOFs are the genuine article. *)

module Server = Nascent_support.Server
module Client = Server.Client
module Router = Nascent_support.Router
module Json = Nascent_support.Json

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
          let r = Router.create ~threshold:100 ~shards () in
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
          let r2 =
            Router.create ~threshold:100
              ~shards:(dead_shard "zombie" :: shards)
              ()
          in
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
    }
  in
  Test_server.with_server erroring (fun path _ ->
      let r = Router.create ~shards:[ shard_of path "a" ] () in
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
      let r =
        Router.create ~threshold:2 ~cooldown_s:600.0 ~shards:[ dead; live ] ()
      in
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
  let boot () =
    let cfg = Server.default_config ~socket_path:path in
    let srv = Server.create cfg (marker "s0") in
    let t = Thread.create (fun () -> Server.run srv) () in
    Test_server.wait_for_socket path;
    (srv, t)
  in
  let srv, t = boot () in
  let shard = shard_of path "s0" in
  let r =
    Router.create ~threshold:1 ~cooldown_s:0.05 ~probe_interval_s:0.05
      ~probe_timeout_s:1.0 ~shards:[ shard ] ()
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
      let srv2, t2 = boot () in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv2;
          Thread.join t2;
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
    Alcotest.test_case "breaker ejects dead shard" `Quick
      test_breaker_ejects_dead_shard;
    Alcotest.test_case "probe re-admits rebooted shard" `Quick
      test_probe_readmits;
  ]
