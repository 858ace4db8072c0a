(* Crash durability, end to end: the write-ahead journal's recovery
   discipline (torn/corrupt records quarantined, done entries never
   replayed), the server's startup replay, SIGTERM mid-replay, the
   breaker/counter snapshot surviving a restart, and the acceptance
   criterion itself — the crash-recovery differential: a batch served
   uninterrupted and a batch recovered from a pre-crash journal produce
   byte-identical responses (modulo cache/timing fields), with no
   admitted request lost or compiled twice. *)

module Journal = Nascent_support.Journal
module Server = Nascent_support.Server
module Client = Server.Client
module Json = Nascent_support.Json
module Guard = Nascent_support.Guard
module Breaker = Nascent_support.Breaker
module Service = Nascent_harness.Service

let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nascent-journal-test-%d-%d" (Unix.getpid ()) !dir_counter)

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nascent-jtest-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let openj_exn dir =
  match Journal.openj ~dir () with
  | Ok j -> j
  | Error e -> Alcotest.failf "journal open failed: %s" e

let payloads j = List.map (fun e -> e.Journal.payload) (Journal.pending j)

let log_path dir = Filename.concat dir "journal.log"

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- journal core ------------------------------------------------------- *)

let test_roundtrip_and_persistence () =
  let dir = fresh_dir () in
  let j = openj_exn dir in
  let s1 = Journal.append j {|{"op":"compile","benchmark":"vortex"}|} in
  let s2 = Journal.append j {|{"op":"compile","benchmark":"trfd"}|} in
  Alcotest.(check int) "two pending" 2 (Journal.pending_count j);
  Alcotest.(check (list string))
    "pending in admission order"
    [ {|{"op":"compile","benchmark":"vortex"}|}; {|{"op":"compile","benchmark":"trfd"}|} ]
    (payloads j);
  Journal.mark_done j s1;
  Alcotest.(check (list string))
    "done entry dropped" [ {|{"op":"compile","benchmark":"trfd"}|} ] (payloads j);
  Journal.close j;
  (* reopen: pending survives the process, done stays done *)
  let j2 = openj_exn dir in
  Alcotest.(check (list string))
    "pending survives reopen" [ {|{"op":"compile","benchmark":"trfd"}|} ] (payloads j2);
  (* replaying an already-done entry is a no-op: marking s1 done again
     (or any unknown seq) changes nothing *)
  Journal.mark_done j2 s1;
  Journal.mark_done j2 9999;
  Alcotest.(check int) "done-again is a no-op" 1 (Journal.pending_count j2);
  Journal.mark_done j2 s2;
  Alcotest.(check int) "all done" 0 (Journal.pending_count j2);
  Journal.close j2;
  let j3 = openj_exn dir in
  Alcotest.(check int) "empty after full drain" 0 (Journal.pending_count j3);
  (* a drained journal accepts new work *)
  let s3 = Journal.append j3 "late" in
  Alcotest.(check (list string)) "fresh append pending" [ "late" ] (payloads j3);
  Journal.mark_done j3 s3;
  Journal.close j3

let test_torn_trailing_entry_quarantined () =
  let dir = fresh_dir () in
  let j = openj_exn dir in
  let _ = Journal.append j {|{"op":"compile","benchmark":"vortex"}|} in
  let _ = Journal.append j {|{"op":"compile","benchmark":"qcd"}|} in
  Journal.close j;
  (* simulate a crash mid-append: a half-written record with no
     newline and a garbage digest at the tail of the log *)
  let raw = read_file (log_path dir) in
  write_file (log_path dir) (raw ^ "NJ1 deadbeefdeadbeefdeadbeefdeadbe A 77 {\"op\":\"compi");
  let j2 = openj_exn dir in
  Alcotest.(check int) "both real entries survive" 2 (Journal.pending_count j2);
  Alcotest.(check int) "torn tail quarantined, not fatal" 1 (Journal.quarantined j2);
  Alcotest.(check bool) "quarantine file exists" true
    (Sys.file_exists (Filename.concat dir "quarantine.log"));
  Journal.close j2

let test_corrupt_middle_entry_skipped () =
  let dir = fresh_dir () in
  let j = openj_exn dir in
  let _ = Journal.append j {|{"op":"compile","benchmark":"vortex"}|} in
  let _ = Journal.append j {|{"op":"compile","benchmark":"qcd"}|} in
  Journal.close j;
  (* flip a byte inside the FIRST record's payload: its digest no
     longer matches, the second record must still be recovered *)
  let raw = Bytes.of_string (read_file (log_path dir)) in
  let idx =
    match String.index_opt (Bytes.to_string raw) 'v' with
    | Some i -> i
    | None -> Alcotest.fail "payload byte not found"
  in
  Bytes.set raw idx 'X';
  write_file (log_path dir) (Bytes.to_string raw);
  let j2 = openj_exn dir in
  Alcotest.(check int) "intact record recovered" 1 (Journal.pending_count j2);
  Alcotest.(check int) "corrupt record quarantined" 1 (Journal.quarantined j2);
  Alcotest.(check (list string))
    "the survivor is the untouched one" [ {|{"op":"compile","benchmark":"qcd"}|} ]
    (payloads j2);
  Journal.close j2

let test_second_open_refused () =
  let dir = fresh_dir () in
  let j = openj_exn dir in
  (match Journal.openj ~dir () with
  | Ok _ -> Alcotest.fail "second open of a live journal must be refused"
  | Error e ->
      let contains_locked =
        let n = String.length e in
        let rec go i = i + 6 <= n && (String.sub e i 6 = "locked" || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the lock" true contains_locked);
  Journal.close j;
  (* the lock dies with its holder: reopen after close succeeds *)
  let j2 = openj_exn dir in
  Journal.close j2

(* --- server replay ------------------------------------------------------ *)

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

(* Boot a journaled server around an existing Service, run f, drain. *)
let with_journaled_server ~journal svc f =
  let path = fresh_socket () in
  let cfg =
    { (Server.default_config ~socket_path:path) with Server.journal = Some journal }
  in
  let srv = Server.create cfg (Service.handler svc) in
  let runner = Thread.create (fun () -> Server.run srv) () in
  wait_for_socket path;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join runner;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path srv)

let request_exn conn req =
  match Client.request conn req with
  | Ok resp -> resp
  | Error msg -> Alcotest.failf "request failed: %s" msg

let ifield resp name =
  match Json.int_member name resp with
  | Some n -> n
  | None -> Alcotest.failf "response lacks int field %S: %s" name (Json.to_string resp)

let bfield resp name =
  match Json.bool_member name resp with
  | Some b -> b
  | None -> Alcotest.failf "response lacks bool field %S: %s" name (Json.to_string resp)

let sfield resp name =
  match Json.str_member name resp with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S: %s" name (Json.to_string resp)

let compile_req ?(id = Json.Int 0) ?(scheme = "LLS") ?fault benchmark =
  Json.Obj
    ([
       ("id", id);
       ("op", Json.Str "compile");
       ("benchmark", Json.Str benchmark);
       ("scheme", Json.Str scheme);
     ]
    @ match fault with None -> [] | Some f -> [ ("fault", Json.Str f) ])

let status_req = Json.Obj [ ("id", Json.Str "st"); ("op", Json.Str "status") ]

let test_server_replays_pending () =
  let dir = fresh_dir () in
  (* what a kill -9 leaves behind: one admitted-and-answered request,
     one admitted-but-unfinished one *)
  let j = openj_exn dir in
  let s_done = Journal.append j (Json.to_string (compile_req "vortex")) in
  let _s_pending = Journal.append j (Json.to_string (compile_req "trfd")) in
  Journal.mark_done j s_done;
  Journal.close j;
  let j = openj_exn dir in
  let svc = Service.create () in
  with_journaled_server ~journal:j svc @@ fun path _srv ->
  Client.with_conn path @@ fun conn ->
  let st = request_exn conn status_req in
  Alcotest.(check int) "exactly the unfinished entry was replayed" 1
    (ifield st "replayed");
  Alcotest.(check int) "journal drained by replay" 0 (ifield st "journal_pending");
  (* the replay went through the Memo-backed compile path: the
     recovering client's retry of the same request hits the warm cache *)
  let r_pending = request_exn conn (compile_req "trfd") in
  Alcotest.(check bool) "replayed request served from cache" true
    (bfield r_pending "cached");
  (* the done entry was NOT replayed: its compile is cold *)
  let r_done = request_exn conn (compile_req "vortex") in
  Alcotest.(check bool) "done entry was not replayed" false (bfield r_done "cached")

let test_sigterm_mid_replay_drains_cleanly () =
  let dir = fresh_dir () in
  let j = openj_exn dir in
  let _ = Journal.append j {|{"op":"noop","n":1}|} in
  let _ = Journal.append j {|{"op":"noop","n":2}|} in
  let _ = Journal.append j {|{"op":"noop","n":3}|} in
  Journal.close j;
  let j = openj_exn dir in
  let srv_ref = ref None in
  let handled = ref 0 in
  let handler =
    {
      Server.handle =
        (fun _req ->
          incr handled;
          (* the drain signal lands while entry 1 is replaying *)
          (match !srv_ref with Some srv -> Server.stop srv | None -> ());
          Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
    }
  in
  let path = fresh_socket () in
  let cfg =
    { (Server.default_config ~socket_path:path) with Server.journal = Some j }
  in
  let srv = Server.create cfg handler in
  srv_ref := Some srv;
  (* run synchronously: with stop arriving mid-replay it must return
     on its own, without ever binding the socket *)
  Server.run srv;
  Alcotest.(check int) "only the first entry was replayed" 1 !handled;
  Alcotest.(check bool) "socket never appeared" false (Sys.file_exists path);
  Alcotest.(check int) "the rest stays pending for the next start" 2
    (Journal.pending_count j);
  Journal.close j;
  (* the next start picks the remainder up *)
  let j2 = openj_exn dir in
  Alcotest.(check int) "pending survives to the successor" 2 (Journal.pending_count j2);
  Journal.close j2

(* --- the acceptance criterion: crash-recovery differential -------------- *)

let rec strip_volatile = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "cached" || k = "elapsed_ms" then None
             else Some (k, strip_volatile v))
           fields)
  | Json.List l -> Json.List (List.map strip_volatile l)
  | other -> other

let test_crash_recovery_differential () =
  let batch =
    [
      compile_req ~id:(Json.Int 1) ~scheme:"LLS" "vortex";
      compile_req ~id:(Json.Int 2) ~scheme:"CS" "trfd";
      compile_req ~id:(Json.Int 3) ~scheme:"SE" "qcd";
      compile_req ~id:(Json.Int 4) ~scheme:"LI" "mdg";
      compile_req ~id:(Json.Int 5) ~scheme:"ALL" "simple";
    ]
  in
  (* run A: uninterrupted *)
  let dir_a = fresh_dir () in
  let j_a = openj_exn dir_a in
  let responses_a =
    with_journaled_server ~journal:j_a (Service.create ()) @@ fun path _ ->
    Client.with_conn path @@ fun conn -> List.map (request_exn conn) batch
  in
  (* run B: every batch request was admitted (journaled) when the
     process was killed — nothing was answered, nothing marked done.
     The successor replays all of them, then the clients retry. *)
  let dir_b = fresh_dir () in
  let j_b = openj_exn dir_b in
  List.iter (fun req -> ignore (Journal.append j_b (Json.to_string req))) batch;
  Journal.close j_b;
  let j_b = openj_exn dir_b in
  let responses_b, status_b =
    with_journaled_server ~journal:j_b (Service.create ()) @@ fun path _ ->
    Client.with_conn path @@ fun conn ->
    let rs = List.map (request_exn conn) batch in
    (rs, request_exn conn status_req)
  in
  Alcotest.(check int) "every admitted request was replayed exactly once"
    (List.length batch) (ifield status_b "replayed");
  Alcotest.(check int) "journal fully drained" 0 (ifield status_b "journal_pending");
  (* replayed-then-retried must mean served-from-cache: the compile ran
     exactly once (during replay), the client response is the memo hit *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "response %d served from the replay's cache entry"
           (ifield r "id"))
        true (bfield r "cached"))
    responses_b;
  (* the differential itself: byte-identical modulo cache/timing *)
  List.iter2
    (fun ra rb ->
      Alcotest.(check string)
        (Printf.sprintf "response %d identical across crash+recovery"
           (ifield ra "id"))
        (Json.to_string (strip_volatile ra))
        (Json.to_string (strip_volatile rb)))
    responses_a responses_b

(* --- legacy journal entries ------------------------------------------------

   A journal written by a daemon that still ran tiered compilation may
   hold a pending {"op":"upgrade","lane":"bg"} entry next to a live
   compile. Its successor replays the live entry as usual, answers the
   upgrade (an op it no longer knows) with a bad-op error, retires both
   entries, and binds. *)
let test_legacy_upgrade_entry_retired () =
  let dir = fresh_dir () in
  let j = openj_exn dir in
  let _ = Journal.append j (Json.to_string (compile_req "vortex")) in
  let _ =
    Journal.append j
      (Json.to_string
         (Json.Obj
            [
              ("op", Json.Str "upgrade");
              ("lane", Json.Str "bg");
              ("benchmark", Json.Str "vortex");
              ("scheme", Json.Str "LLS");
            ]))
  in
  Journal.close j;
  let svc = Service.create () in
  let answers = ref [] in
  let inner = Service.handler svc in
  let recording =
    {
      inner with
      Server.handle =
        (fun req ->
          let resp = inner.Server.handle req in
          answers := resp :: !answers;
          resp);
    }
  in
  let path = fresh_socket () in
  let cfg =
    {
      (Server.default_config ~socket_path:path) with
      Server.journal = Some (openj_exn dir);
    }
  in
  let srv = Server.create cfg recording in
  let runner = Thread.create (fun () -> Server.run srv) () in
  wait_for_socket path;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join runner;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match List.rev !answers with
  | [ live; upgrade ] ->
      Alcotest.(check string) "live entry replayed as a compile" "ok" (sfield live "status");
      Alcotest.(check string) "upgrade entry refused" "error" (sfield upgrade "status");
      Alcotest.(check string) "as an unknown op" "bad-op" (sfield upgrade "code")
  | l -> Alcotest.failf "expected 2 replayed entries, the handler saw %d" (List.length l));
  Client.with_conn path @@ fun conn ->
  let st = request_exn conn status_req in
  Alcotest.(check int) "both journal entries replayed" 2 (ifield st "replayed");
  Alcotest.(check int) "nothing left pending" 0 (ifield st "journal_pending");
  let warm = request_exn conn (compile_req "vortex") in
  Alcotest.(check bool) "replayed live compile served from cache" true
    (bfield warm "cached");
  Alcotest.(check string) "at the requested scheme" "LLS" (sfield warm "scheme_used");
  let fresh = request_exn conn (compile_req "trfd") in
  Alcotest.(check string) "the successor serves new work" "ok" (sfield fresh "status")

(* --- breaker / counter snapshot across restarts ------------------------- *)

let test_breaker_state_survives_restart () =
  let dir = fresh_dir () in
  let state_path = Filename.concat dir "state.json" in
  Unix.mkdir dir 0o755;
  (* life 1: trip the CS breaker with two faulty compiles *)
  let svc1 =
    Service.create ~breaker_threshold:2 ~breaker_cooldown_s:60.0 ~state_path ()
  in
  let dir_j1 = fresh_dir () in
  (with_journaled_server ~journal:(openj_exn dir_j1) svc1 @@ fun path _ ->
   Client.with_conn path @@ fun conn ->
   let r1 =
     request_exn conn (compile_req ~id:(Json.Int 1) ~scheme:"CS" ~fault:"drop-check:7" "vortex")
   in
   Alcotest.(check string) "faulty compile degrades" "degraded" (sfield r1 "status");
   let r2 =
     request_exn conn (compile_req ~id:(Json.Int 2) ~scheme:"CS" ~fault:"drop-check:7" "vortex")
   in
   Alcotest.(check string) "breaker open after threshold" "open" (sfield r2 "breaker"));
  Alcotest.(check bool) "state snapshot written" true (Sys.file_exists state_path);
  (* life 2: a fresh Service restores the snapshot — the tripped scheme
     stays routed to the NI floor (cooldown far from elapsed) *)
  let svc2 =
    Service.create ~breaker_threshold:2 ~breaker_cooldown_s:60.0 ~state_path ()
  in
  let dir_j2 = fresh_dir () in
  with_journaled_server ~journal:(openj_exn dir_j2) svc2 @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let r = request_exn conn (compile_req ~id:(Json.Int 3) ~scheme:"CS" "vortex") in
  Alcotest.(check bool) "restored breaker routes to fallback" true (bfield r "fallback");
  Alcotest.(check string) "served at the NI floor" "NI" (sfield r "scheme_used");
  let st = request_exn conn status_req in
  Alcotest.(check int) "service counters restored across the restart" 3
    (ifield st "compiles")

let suite =
  [
    Util.tc "journal round-trips and persists" test_roundtrip_and_persistence;
    Util.tc "torn trailing entry quarantined" test_torn_trailing_entry_quarantined;
    Util.tc "corrupt middle entry skipped" test_corrupt_middle_entry_skipped;
    Util.tc "second open refused while locked" test_second_open_refused;
    Util.tc "server replays pending entries" test_server_replays_pending;
    Util.tc "SIGTERM mid-replay drains cleanly" test_sigterm_mid_replay_drains_cleanly;
    Util.tc "crash-recovery differential" test_crash_recovery_differential;
    Util.tc "legacy upgrade refused and retired" test_legacy_upgrade_entry_retired;
    Util.tc "breaker state survives restart" test_breaker_state_survives_restart;
  ]
