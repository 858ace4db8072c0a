(* The service workloads: real nascentd processes, driven over NF1 on
   loopback TCP by one generator process with at most two threads and
   two connections.

   - serve-hit: one journaled daemon (-j 2) with an 80-key hot set
     (10 programs x NI/LLS/CS/ALL x PRX/INX) prewarmed with tier:"sync";
     a closed loop keeps 2 requests in flight, each a seeded uniform
     draw from the hot set, so every request is a memo hit.
   - serve-miss: the same daemon, no prewarm; a closed loop keeps 2
     requests in flight, like a build client, each a unique source
     (a suite program plus a "! ledger" comment line) at a seeded
     scheme/kind, at the daemon's default tier.
   - serve-routed: nascentd --router in front of 2 journaled shards
     (-j 1); a closed loop keeps 2 requests in flight, 90% prewarmed
     hot keys and 10% unique sources.

   Every response is checked: status ok, no incidents, the scheme that
   was asked for (or the NI floor, announced as such), and the static
   check counts the in-process compiler gives for the same cell.

   Untraced runs report what the requests cost the daemons in CPU time.
   Traced runs give the wall-clock latency and throughput of the same
   closed loop, and add the phases that cost single layers: one request in
   flight (the round trip against the daemon's own elapsed_ms),
   open-loop rungs at 300 and 1200 rps on serve-hit, the journal as a
   black-box differential against an unjournaled daemon, the same miss
   stream with tier:"sync", the router hop against direct-to-owner
   requests, a status sampler for queue depth, and in-process replays
   of the recorded stream through the codecs, Memo.key and the
   compiler. *)

module B = Nascent_benchmarks.Suite
module Config = Nascent_core.Config
module Json = Nascent_support.Json
module Frame = Nascent_support.Frame
module Memo = Nascent_support.Memo
module Router = Nascent_support.Router
module Mclock = Nascent_support.Mclock

let cells_of schemes =
  Array.of_list
    (List.concat_map
       (fun prog ->
         List.concat_map
           (fun scheme ->
             List.map (fun kind -> { Compile.prog; scheme; kind; oracle = false }) Compile.kinds)
           schemes)
       B.all)

let hot_cells = cells_of Config.[ NI; LLS; CS; ALL ]
let all_cells = cells_of Compile.schemes

let request ?tier ~src (c : Compile.cell) =
  Json.Obj
    ([
       ("op", Json.Str "compile");
       ("source", Json.Str src);
       ("scheme", Json.Str (Config.scheme_name c.scheme));
       ("kind", Json.Str (Config.kind_name c.kind));
     ]
    @ match tier with None -> [] | Some t -> [ ("tier", Json.Str t) ])

(* --- checking answers ------------------------------------------------- *)

(* Static check counts (before, after) of each cell, from the in-process
   compiler with the daemon's defaults. *)
let references cells =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun (c : Compile.cell) ->
      Hashtbl.replace tbl (Compile.label c)
        (Compile.static_checks (Compile.run ~src:c.prog.B.source c)))
    cells;
  tbl

type resp = {
  lat : float; (* seconds, as the client saw it *)
  elapsed_ms : float; (* the daemon's own account *)
  floor : bool;
  optimized : bool; (* served at the requested scheme *)
  before : int;
  after : int;
}

let check_response refs (c : Compile.cell) ~hit j =
  let str f = Json.str_member f j in
  let fail why = Error (Compile.label c ^ ": " ^ why) in
  match str "status" with
  | Some "ok" ->
      let floor = str "tier" = Some "floor" in
      let used = if floor then Config.NI else c.scheme in
      let before, after = Hashtbl.find refs (Compile.label { c with scheme = used }) in
      if str "scheme_requested" <> Some (Config.scheme_name c.scheme) then
        fail "wrong scheme_requested"
      else if str "scheme_used" <> Some (Config.scheme_name used) then
        fail "unexpected scheme_used"
      else if hit && (floor || Json.bool_member "cached" j <> Some true) then
        fail "prewarmed key was not a memo hit"
      else if
        Json.int_member "checks_before" j <> Some before
        || Json.int_member "checks_after" j <> Some after
      then fail "static check counts differ from the in-process compile"
      else if Json.member "validated" j <> Some Json.Null then
        fail "unexpected validation verdict"
      else if Json.member "incidents" j <> Some (Json.List []) then fail "incidents reported"
      else
        Ok
          {
            lat = 0.0;
            elapsed_ms = Option.value ~default:0.0 (Json.float_member "elapsed_ms" j);
            floor;
            optimized = not floor;
            before;
            after;
          }
  | s ->
      fail
        (Printf.sprintf "status %s (%s)" (Option.value ~default:"?" s)
           (Option.value ~default:"" (str "code")))

let answer refs out c ~hit ~lat j =
  match check_response refs c ~hit j with
  | Ok r ->
      Outcome.check out (Ok ());
      Some { r with lat }
  | Error why ->
      Outcome.check out (Error why);
      None

(* --- request streams -------------------------------------------------- *)

type draw = Compile.cell * Json.t * bool (* cell, request, expect a hit *)

(* A request generator that records what it sent, up to [record_cap],
   for the in-process replays. *)
type stream = { draw : unit -> draw; mutable sent : draw list }

let record_cap = 2000
let stream draw = { draw; sent = [] }

let next st =
  let r = st.draw () in
  if List.compare_length_with st.sent record_cap < 0 then st.sent <- r :: st.sent;
  r

let tag_counter = ref 0

(* A distinct memo key with the same compile work: a comment line. *)
let unique_source (w : Work.t) prog =
  incr tag_counter;
  Printf.sprintf "%s\n! ledger %d-%d\n" prog.B.source w.Work.seed !tag_counter

let hit_draw (w : Work.t) () =
  let c = Work.pick w.Work.rng hot_cells in
  (c, request ~src:c.Compile.prog.B.source c, true)

let miss_draw ?tier (w : Work.t) () =
  let c = Work.pick w.Work.rng all_cells in
  (c, request ?tier ~src:(unique_source w c.Compile.prog) c, false)

let routed_draw w () =
  if Random.State.int w.Work.rng 10 = 0 then miss_draw w () else hit_draw w ()

(* --- load phases ------------------------------------------------------ *)

type phase = {
  resps : resp list;
  payloads : string list; (* raw response payloads, up to [record_cap] *)
}

let span_id = ref 0

let request_span c ~start ~dur =
  if !Spans.enabled then begin
    incr span_id;
    Spans.async ~cat:"request" ~name:"request" ~id:!span_id ~start ~dur
      ~args:[ ("cell", Json.Str (Compile.label c)) ]
      ()
  end

(* Closed loop: [inflight] requests outstanding on one connection; each
   response releases the next request until [seconds] have passed. *)
let closed_loop ~port ~inflight ~seconds refs out st =
  let conn = Nf1.connect port in
  Fun.protect ~finally:(fun () -> Nf1.close conn) @@ fun () ->
  let pending = Hashtbl.create 16 in
  let t0 = Mclock.counter () in
  let send () =
    let c, req, hit = next st in
    let ts = Mclock.counter () in
    Hashtbl.replace pending (Nf1.send conn req) (c, hit, ts)
  in
  for _ = 1 to inflight do
    send ()
  done;
  let resps = ref [] and payloads = ref [] in
  while Hashtbl.length pending > 0 do
    let id, payload, j = Nf1.recv conn in
    match Hashtbl.find_opt pending id with
    | None -> raise (Nf1.Protocol "response to an unknown frame id")
    | Some (c, hit, ts) ->
        Hashtbl.remove pending id;
        let dur = Int64.sub (Mclock.counter ()) ts in
        request_span c ~start:ts ~dur;
        if List.compare_length_with !payloads record_cap < 0 then
          payloads := payload :: !payloads;
        Option.iter
          (fun r -> resps := r :: !resps)
          (answer refs out c ~hit ~lat:(Int64.to_float dur /. 1e9) j);
        if Mclock.elapsed_s t0 < seconds then send ()
  done;
  { resps = !resps; payloads = !payloads }

(* Open loop at a fixed rate on one pipelined connection: a sender on
   the schedule, a receiver matching responses to frame ids. Latency
   counts from the scheduled send time, so a stalled generator cannot
   hide queueing; how late the sender ran is returned beside it. *)
let open_loop ~port ~rate ~seconds refs out st =
  let conn = Nf1.connect port in
  Fun.protect ~finally:(fun () -> Nf1.close conn) @@ fun () ->
  let n = max 1 (int_of_float (rate *. seconds)) in
  let lock = Mutex.create () in
  let pending = Hashtbl.create 256 in
  let resps = ref [] and late = ref [] and received = ref 0 in
  let t0 = Mclock.counter () in
  let receiver =
    Thread.create
      (fun () ->
        try
          while !received < n do
            let id, _, j = Nf1.recv conn in
            let now = Mclock.elapsed_s t0 in
            Mutex.lock lock;
            incr received;
            (match Hashtbl.find_opt pending id with
            | Some (c, hit, sched) ->
                Hashtbl.remove pending id;
                let lat = now -. sched in
                request_span c
                  ~start:(Int64.add t0 (Int64.of_float (sched *. 1e9)))
                  ~dur:(Int64.of_float (lat *. 1e9));
                Option.iter (fun r -> resps := r :: !resps) (answer refs out c ~hit ~lat j)
            | None -> Outcome.fail out "open loop: response to an unknown frame id");
            Mutex.unlock lock
          done
        with e ->
          Mutex.lock lock;
          for _ = !received + 1 to n do
            Outcome.check out (Error ("open loop: " ^ Printexc.to_string e))
          done;
          received := n;
          Mutex.unlock lock)
      ()
  in
  for i = 0 to n - 1 do
    let sched = float_of_int i /. rate in
    let now = Mclock.elapsed_s t0 in
    if sched > now then Thread.delay (sched -. now);
    let c, req, hit = next st in
    (* the frame id is registered before its response can arrive *)
    Mutex.lock lock;
    late := (Mclock.elapsed_s t0 -. sched) :: !late;
    (match Nf1.send conn req with
    | id -> Hashtbl.replace pending id (c, hit, sched)
    | exception e ->
        Outcome.check out (Error ("open loop send: " ^ Printexc.to_string e));
        incr received);
    Mutex.unlock lock
  done;
  Thread.join receiver;
  (!resps, !late)

(* Run [f] while a second connection samples the queue depth every
   250 ms. *)
let with_sampler ~port f =
  let stop = Atomic.make false in
  let depths = ref [] in
  let th =
    Thread.create
      (fun () ->
        try
          let c = Nf1.connect port in
          Fun.protect ~finally:(fun () -> Nf1.close c) @@ fun () ->
          while not (Atomic.get stop) do
            let st = Nf1.request c (Json.Obj [ ("op", Json.Str "status") ]) in
            depths := Daemon.field st [ "queue_depth" ] :: !depths;
            Thread.delay 0.25
          done
        with _ -> ())
      ()
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join th)
      f
  in
  (r, !depths)

(* One checked request on [conn], timed around the exchange alone. *)
let timed refs out conn (c, req, hit) =
  let ts = Mclock.counter () in
  let j = Nf1.request conn req in
  let lat = Mclock.elapsed_s ts in
  ignore (answer refs out c ~hit ~lat j);
  lat

(* Median round trip of [a] minus that of [b] in microseconds, one
   request at a time, from alternating blocks so that drift on the host
   hits both sides alike. *)
let differential ~seconds a b =
  let block = seconds /. 8.0 in
  let run f =
    let t0 = Mclock.counter () in
    let lats = ref [] in
    while Mclock.elapsed_s t0 < block do
      lats := f () :: !lats
    done;
    !lats
  in
  let la = ref [] and lb = ref [] in
  for _ = 1 to 4 do
    la := run a @ !la;
    lb := run b @ !lb
  done;
  1e6 *. (Stat.median !la -. Stat.median !lb)

(* --- fleets ----------------------------------------------------------- *)

type fleet = {
  front : Daemon.t; (* what the client talks to *)
  compilers : Daemon.t list;
  all : Daemon.t list;
}

let journal_counter = ref 0

let journal_dir (w : Work.t) name =
  incr journal_counter;
  Filename.concat w.Work.dir (Printf.sprintf "journal-%s-%d" name !journal_counter)

let start_single ?(journaled = true) (w : Work.t) name =
  let journal = if journaled then Some (journal_dir w name) else None in
  let d = Daemon.spawn ~exe:w.Work.nascentd ~dir:w.Work.dir ~name ?journal [ "-j"; "2" ] in
  { front = d; compilers = [ d ]; all = [ d ] }

let start_routed (w : Work.t) =
  let spawn = Daemon.spawn ~exe:w.Work.nascentd ~dir:w.Work.dir in
  let shards =
    List.init 2 (fun i ->
        let name = Printf.sprintf "s%d" i in
        spawn ~name ~journal:(journal_dir w name) [ "-j"; "1"; "--shard-name"; name ])
  in
  let router =
    spawn ~name:"router"
      ("--router"
      :: List.concat_map
           (fun (d : Daemon.t) -> [ "--shard"; Printf.sprintf "%s=127.0.0.1:%d" d.name d.port ])
           shards)
  in
  { front = router; compilers = shards; all = router :: shards }

let stop_fleet f = List.iter Daemon.stop f.all

let prewarm refs out f =
  let conn = Nf1.connect f.front.Daemon.port in
  Fun.protect ~finally:(fun () -> Nf1.close conn) @@ fun () ->
  Array.iter
    (fun (c : Compile.cell) ->
      let j = Nf1.request conn (request ~tier:"sync" ~src:c.prog.B.source c) in
      Outcome.check out
        (match check_response refs c ~hit:false j with
        | Ok r when r.optimized -> Ok ()
        | Ok _ -> Error (Compile.label c ^ ": prewarm did not compile the requested scheme")
        | Error e -> Error e))
    hot_cells

(* --- metrics ---------------------------------------------------------- *)

let lat_ms rs = List.map (fun r -> 1000.0 *. r.lat) rs

let checks_left rs =
  let b, a = List.fold_left (fun (b, a) r -> (b + r.before, a + r.after)) (0, 0) rs in
  100.0 *. float_of_int a /. float_of_int (max 1 b)

let share p rs =
  float_of_int (List.length (List.filter p rs)) /. float_of_int (max 1 (List.length rs))

(* Mean microseconds per item of [f], over whole passes of [items]
   until at least 50 ms have been timed. *)
let per_op_us items f =
  let items = Array.of_list items in
  if Array.length items = 0 then 0.0
  else begin
    let t = Mclock.counter () in
    let reps = ref 0 in
    while !reps = 0 || Mclock.elapsed_s t < 0.05 do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
      incr reps
    done;
    1e6 *. Mclock.elapsed_s t /. float_of_int (!reps * Array.length items)
  end

(* The client-side codec and the daemon's memo-key digest, replayed
   in-process over a recorded stream; returns the client codec's cost
   per request in microseconds. *)
let codec_replay metric (st : stream) payloads =
  let reqs = List.map (fun (_, r, _) -> r) st.sent in
  let frames = List.map (Frame.encode ~id:1) payloads in
  let print = per_op_us reqs Json.to_string in
  let encode = per_op_us (List.map Json.to_string reqs) (Frame.encode ~id:1) in
  let decode =
    per_op_us frames (fun f ->
        let d = Frame.decoder () in
        Frame.feed d f ~off:0 ~len:(String.length f);
        Frame.next d)
  in
  let parse = per_op_us payloads Json.parse in
  metric "json.print_us" print;
  metric "frame.encode_us" encode;
  metric "frame.decode_us" decode;
  metric "json.parse_us" parse;
  (* the daemon digests the full source into every request's memo key *)
  metric "memo.key_us"
    (per_op_us st.sent (fun ((c : Compile.cell), req, _) ->
         Memo.key
           [
             "ledger";
             Option.value ~default:"" (Json.str_member "source" req);
             Config.cache_key (Compile.config c);
             "norun";
           ]));
  print +. encode +. decode +. parse

type counters = {
  hits : float;
  misses : float;
  swaps : float;
  upgrades_done : float;
  upgrades_pending : float;
  shed : float;
  served : float list; (* per compiling daemon *)
}

let counters f =
  let st = List.map (fun d -> (d, Daemon.status d)) f.all in
  let sum ds path = Stat.sum (List.map (fun d -> Daemon.field (List.assq d st) path) ds) in
  let compilers = sum f.compilers in
  {
    hits = compilers [ "cache"; "hits" ];
    misses = compilers [ "cache"; "misses" ];
    swaps = compilers [ "cache"; "swaps" ];
    upgrades_done = compilers [ "upgrades"; "done" ];
    upgrades_pending = compilers [ "upgrades"; "pending" ];
    shed = sum f.all [ "shed" ];
    served = List.map (fun d -> Daemon.field (List.assq d st) [ "served" ]) f.compilers;
  }

(* The live path's compiles of [cells], replayed in-process (at the NI
   floor when [floor]): mean milliseconds per compile, and with
   [layers] their split into the compile layers. *)
let compile_replay ?(layers = false) metric cells ~floor =
  let ls =
    List.map
      (fun ((c : Compile.cell), src) ->
        Compile.run ~src (if floor then { c with scheme = Config.NI } else c))
      cells
  in
  let mean f = Stat.mean (List.map f ls) in
  if layers then begin
    metric "frontend.analyze_us" (1e6 *. mean (fun l -> l.Compile.analyze_s));
    metric "ir.lower_us" (1e6 *. mean (fun l -> l.Compile.lower_s));
    let opt = 1000.0 *. mean (fun l -> l.Compile.optimize_s) in
    metric "core.optimize_ms" opt;
    let passes =
      List.map
        (fun p ->
          let v = 1000.0 *. mean (fun l -> Compile.pass_s l p) in
          metric ("core.pass." ^ p ^ "_ms") v;
          v)
        Compile.pass_names
    in
    metric "core.unattributed_ms" (opt -. Stat.sum passes);
    metric "core.alloc_mwords" (mean (fun l -> l.Compile.alloc_words) /. 1e6);
    let b, a =
      List.fold_left
        (fun (b, a) l ->
          let cb, ca = Compile.static_checks l in
          (b + cb, a + ca))
        (0, 0) ls
    in
    metric "core.static_checks_left_pct" (100.0 *. float_of_int a /. float_of_int (max 1 b));
    metric "core.incidents"
      (float_of_int
         (List.fold_left
            (fun n l -> n + List.length l.Compile.stats.Nascent_core.Optimizer.incidents)
            0 ls))
  end;
  1000.0 *. mean (fun l -> l.Compile.total_s)

(* The unique-source requests of a recorded stream, at most 200. *)
let miss_cells (st : stream) =
  List.filter_map
    (fun (c, req, hit) ->
      match Json.str_member "source" req with
      | Some src when not hit -> Some (c, src)
      | _ -> None)
    st.sent
  |> List.filteri (fun i _ -> i < 200)

(* --- the workloads ---------------------------------------------------- *)

type kind = Hit | Miss | Routed

(* Requests in flight in the closed loops: two, one per core of the
   2-vCPU hosts the ledger is tuned on. With four in flight the client,
   the daemon's workers and the router all contend for the cores, and
   serve-hit's p90 then swung by over 25% between identical runs; with
   one in flight every request waits on idle cores waking up, which
   drifts with the host's load. *)
let inflight = 2

(* CPU seconds used so far by the daemons of a fleet. *)
let fleet_cpu f = Stat.sum (List.map (fun (d : Daemon.t) -> Cpu.process_s d.pid) f.all)

(* Untraced: each set-up is measured in turn for a share of the budget,
   so that where a daemon's threads land on the host's cores, settled
   when it starts, is sampled five times, and every figure is the
   median over the five. Set-up is the CPU time of starting the daemons
   and prewarming them, theirs and the client's. The first tenth of
   each share, at most a second, is warm-up; over the rest, the
   daemons' CPU time divided by the requests answered is what a request
   costs the service. *)
let end_to_end (w : Work.t) out ~refs ~start ~draw =
  let share = w.Work.seconds /. float_of_int Work.setup_repeats in
  let warmup = Float.min 1.0 (0.1 *. share) in
  let instance () =
    let c = Cpu.self () in
    let f = start () in
    Fun.protect ~finally:(fun () -> stop_fleet f) @@ fun () ->
    let setup = Cpu.self () -. c +. fleet_cpu f in
    let port = f.front.Daemon.port and st = stream draw in
    ignore (closed_loop ~port ~inflight ~seconds:warmup refs out st);
    let c = fleet_cpu f in
    let ph = closed_loop ~port ~inflight ~seconds:(share -. warmup) refs out st in
    let cpu = fleet_cpu f -. c in
    [
      ("setup_s", setup);
      ("cpu_ms_per_op", 1000.0 *. cpu /. float_of_int (max 1 (List.length ph.resps)));
      ("checks_left_pct", checks_left ph.resps);
      ("rss_mb", Stat.sum (List.map (fun (d : Daemon.t) -> Daemon.vmhwm_mb d.pid) f.all));
    ]
  in
  let runs = List.init Work.setup_repeats (fun _ -> instance ()) in
  List.iter
    (fun (name, _) -> Outcome.metric out name (Stat.median (List.map (List.assoc name) runs)))
    (List.hd runs)

let per_layer kind (w : Work.t) out ~refs ~start ~draw =
  let metric = Outcome.metric out in
  let s = w.Work.seconds in
  let fleet = start () in
  Fun.protect ~finally:(fun () -> stop_fleet fleet) @@ fun () ->
  let port = fleet.front.Daemon.port in
  (* one request in flight: the round trip against the daemon's own
     account of it and the client codec *)
  let w1_stream = stream draw in
  let w1 =
    closed_loop ~port ~inflight:1 ~seconds:((if kind = Miss then 0.15 else 0.1) *. s) refs out
      w1_stream
  in
  let rtt_us = 1e6 *. Stat.median (List.map (fun r -> r.lat) w1.resps) in
  let daemon_us = 1000.0 *. Stat.median (List.map (fun r -> r.elapsed_ms) w1.resps) in
  let codec_us = codec_replay metric w1_stream w1.payloads in
  metric "server.rtt_w1_us" rtt_us;
  metric "server.unattributed_us" (rtt_us -. codec_us -. daemon_us);
  metric "trace.layer_sum_pct" (100.0 *. (codec_us +. daemon_us) /. rtt_us);
  if kind = Hit then begin
    let st = stream draw in
    let low, late_low = open_loop ~port ~rate:300.0 ~seconds:(0.2 *. s) refs out st in
    let high, late_high = open_loop ~port ~rate:1200.0 ~seconds:(0.2 *. s) refs out st in
    let lo = lat_ms low and hi = lat_ms high in
    metric "p50_ms.low" (Stat.pct lo 0.5);
    metric "p90_ms.low" (Stat.pct lo 0.9);
    metric "p99_ms.low" (Stat.pct lo 0.99);
    metric "p50_ms.high" (Stat.pct hi 0.5);
    metric "p90_ms.high" (Stat.pct hi 0.9);
    metric "p99_ms.high" (Stat.pct hi 0.99);
    metric "p999_ms.high" (Stat.pct hi 0.999);
    let late = List.map (fun x -> 1000.0 *. x) (late_low @ late_high) in
    metric "gen.late_ms_p99" (Stat.pct late 0.99);
    metric "gen.late_ms_max" (List.fold_left Float.max 0.0 late)
  end;
  let st = stream draw in
  let c0 = counters fleet in
  let seconds = (match kind with Hit -> 0.25 | Miss -> 0.5 | Routed -> 0.6) *. s in
  let ph, depths =
    with_sampler ~port (fun () -> closed_loop ~port ~inflight ~seconds refs out st)
  in
  let c1 = counters fleet in
  let lat = lat_ms ph.resps in
  metric "p50_ms" (Stat.pct lat 0.5);
  metric "p90_ms" (Stat.pct lat 0.9);
  metric "p99_ms" (Stat.pct lat 0.99);
  metric "ops_per_s" (float_of_int (List.length ph.resps) /. seconds);
  metric "daemon.elapsed_ms_p50" (Stat.pct (List.map (fun r -> r.elapsed_ms) ph.resps) 0.5);
  metric "server.queue_depth_p90" (Stat.pct depths 0.9);
  metric "server.shed" (c1.shed -. c0.shed);
  let hits = c1.hits -. c0.hits and misses = c1.misses -. c0.misses in
  metric "service.cache_hit_ratio" (hits /. Float.max 1.0 (hits +. misses));
  metric "tier.floor_share" (share (fun r -> r.floor) ph.resps);
  metric "tier.optimized_frac" (share (fun r -> r.optimized) ph.resps);
  metric "tier.upgrades_done" (c1.upgrades_done -. c0.upgrades_done);
  metric "tier.upgrades_pending_end" c1.upgrades_pending;
  metric "service.swaps" (c1.swaps -. c0.swaps);
  (match kind with
  | Hit ->
      (* the journal and state snapshot, as a black box: the same
         one-at-a-time hot stream against a daemon without
         NASCENT_JOURNAL_DIR *)
      let plain = start_single ~journaled:false w "nojournal" in
      Fun.protect ~finally:(fun () -> stop_fleet plain) @@ fun () ->
      prewarm refs out plain;
      let on = Nf1.connect port and off = Nf1.connect plain.front.Daemon.port in
      Fun.protect ~finally:(fun () -> List.iter Nf1.close [ on; off ]) @@ fun () ->
      metric "durability.cost_us"
        (differential ~seconds:(0.25 *. s)
           (fun () -> timed refs out on (draw ()))
           (fun () -> timed refs out off (draw ())))
  | Miss ->
      (* what deleting tiering would cost the client: the same miss
         stream compiled synchronously, on a fresh daemon *)
      let sync = start_single w "sync" in
      Fun.protect ~finally:(fun () -> stop_fleet sync) @@ fun () ->
      let ph =
        closed_loop ~port:sync.front.Daemon.port ~inflight ~seconds:(0.35 *. s) refs out
          (stream (miss_draw ~tier:"sync" w))
      in
      metric "tier.sync_p50_ms" (Stat.pct (lat_ms ph.resps) 0.5)
  | Routed ->
      (* the router hop: one hot request at a time through the router
         against the same sent straight to the shard the ring picks *)
      let ring =
        Router.create
          ~shards:
            (List.map
               (fun (d : Daemon.t) ->
                 {
                   Router.name = d.name;
                   address = Nascent_support.Server.Client.Tcp ("127.0.0.1", d.port);
                 })
               fleet.compilers)
          ()
      in
      let direct =
        List.map (fun (d : Daemon.t) -> (d.name, Nf1.connect d.port)) fleet.compilers
      in
      let routed = Nf1.connect port in
      Fun.protect ~finally:(fun () -> List.iter Nf1.close (routed :: List.map snd direct))
      @@ fun () ->
      let to_owner () =
        let ((_, req, _) as r) = hit_draw w () in
        let owner = List.hd (Router.route ring (Router.shard_key req)) in
        timed refs out (List.assoc owner.Router.name direct) r
      in
      metric "router.hop_us"
        (differential ~seconds:(0.3 *. s)
           (fun () -> timed refs out routed (hit_draw w ()))
           to_owner);
      let rs = Daemon.status fleet.front in
      metric "router.failovers" (Daemon.field rs [ "router"; "failovers" ]);
      metric "router.ejections" (Daemon.field rs [ "router"; "ejections" ]);
      let served = List.map2 ( -. ) c1.served c0.served in
      metric "shard.balance"
        (List.fold_left Float.max 0.0 served /. Float.max 1.0 (Stat.mean served)));
  if kind <> Hit then begin
    let cells = miss_cells st in
    metric "service.floor_compile_ms" (compile_replay ~layers:true metric cells ~floor:true);
    metric "service.upgrade_compile_ms"
      (compile_replay metric
         (List.filter (fun ((c : Compile.cell), _) -> c.scheme <> Config.NI) cells)
         ~floor:false)
  end

let run kind (w : Work.t) out =
  let refs = references (match kind with Hit -> hot_cells | Miss | Routed -> all_cells) in
  let start () =
    let f = match kind with Routed -> start_routed w | Hit | Miss -> start_single w "d" in
    if kind <> Miss then prewarm refs out f;
    f
  in
  let draw = match kind with Hit -> hit_draw w | Miss -> miss_draw w | Routed -> routed_draw w in
  if not w.Work.traced then end_to_end w out ~refs ~start ~draw
  else begin
    Spans.enabled := true;
    Fun.protect
      ~finally:(fun () -> Spans.enabled := false)
      (fun () -> per_layer kind w out ~refs ~start ~draw)
  end
