(* Compile-as-a-service transport, robust by construction: a
   Unix-domain socket and an optional TCP listener, both speaking the
   NF1 framed protocol (Frame) with per-connection pipelining — many
   in-flight requests tagged by frame id on one socket, responses
   written in completion order.

   Layering: this module owns everything about *serving* — the sockets,
   connection reader threads, the bounded request queue (admission
   control), workers (domains or threads, as the handler asks) with
   crash supervision, per-request
   wall-clock deadlines layered on Guard fuel, drain-on-stop, and the
   status counters. What a request *means* is the handler's business
   (the compile handler lives in Nascent_harness.Service); the server
   only understands the envelope: the "id" field it echoes back, the
   "op":"status" request it answers itself so observability survives a
   full queue, and the "deadline_ms" override.

   Robustness contract (pinned by test/test_server.ml and the CI
   smoke):
   - admission control: once the queue holds [queue_depth] requests,
     new ones are shed immediately with {"code":"overloaded",
     "retryable":true} — the server degrades by refusing work, never by
     wedging or growing without bound;
   - per-request deadlines: a request carries its wall budget from
     admission (queue wait included; [deadline_s] unless it sends its
     own "deadline_ms"); a compile that outlives it is cut
     off at the next ambient tick and answered with
     {"code":"deadline"}, freeing the worker. Fuel exhaustion is
     reported the same way — both are resource-bound responses;
   - worker crash isolation: a handler exception answers that request
     with {"code":"internal"} and the worker survives; anything that
     escapes even that guard restarts the worker loop (counted in
     [worker_restarts]) instead of silently losing a domain;
   - connection lifecycle: a connection's fd, conn record and reader
     thread are released as soon as the client hangs up AND its last
     queued response has been written (a refcount on the conn), so a
     long-running daemon serving one-connection-per-request clients
     holds resources proportional to the live connection count, never
     to the lifetime request count;
   - accept resilience: accept(2) failures (ECONNABORTED, EMFILE under
     fd pressure, ...) are counted and absorbed — the accept loop backs
     off briefly on fd exhaustion and keeps serving instead of crashing
     the daemon with admitted requests still queued;
   - network failure domain: a slow-loris peer cannot wedge a reader or
     leak a connection record — a frame that stays incomplete past
     [io_deadline_s] closes the connection (io_timeouts), a response
     write blocked past the I/O budget gives up (the peer is not
     draining), torn/oversized/garbage frames are terminal for their
     connection only (frame_errors), and a legacy or version-mismatched
     client on either listener gets one clear error line and a close
     (proto_rejects) instead of a hang. A connection with no frame
     started is never timed out: it holds a reader and an fd, no
     worker;
   - graceful drain: [stop] (wired to SIGTERM/SIGINT by nascentd) stops
     accepting, sheds NEW requests with {"code":"shutting-down",
     "retryable":true}, finishes every admitted request, flushes
     responses, then joins workers and readers — zero in-flight loss,
     exit 0. *)

(* OCaml 5 collects every domain's minor heap together, stopping the
   world, so each domain costs every request a share of every
   collection even while it idles. A handler that computes gets a
   domain per job; one that only waits on sockets gets threads of the
   serving domain, which block in I/O without a heap of their own. *)
type workers = Domains | Threads

type handler = {
  handle : Json.t -> Json.t;
      (* request object -> response object; the server adds "id" *)
  status_extra : unit -> (string * Json.t) list;
      (* appended to "op":"status" responses *)
  workers : workers;
}

type config = {
  socket_path : string;
  tcp : (string * int) option;
      (* additional TCP listener (host, port; port 0 = ephemeral) *)
  jobs : int; (* workers, of the handler's kind *)
  queue_depth : int; (* admission bound on queued requests *)
  restarts : int; (* supervisor restart count, reported in status *)
  io_deadline_s : float option;
      (* slow-loris bound: a frame that stays incomplete this long
         closes the connection; also the response-write budget *)
}

let default_config ~socket_path =
  {
    socket_path;
    tcp = None;
    jobs = 2;
    queue_depth = 64;
    restarts = 0;
    io_deadline_s = Some 10.0;
  }

(* A domain worker's request bounds, unless the request carries its own
   "deadline_ms": its wall budget and its Guard fuel. *)
let deadline_s = 30.0
let fuel_budget = 50_000_000

type counters = {
  mutable served : int; (* requests answered by the handler *)
  mutable shed : int; (* overload + drain rejections *)
  mutable timeouts : int; (* deadline / fuel responses *)
  mutable internal_errors : int; (* handler exceptions *)
  mutable bad_requests : int; (* frame payloads that are not JSON *)
  mutable worker_restarts : int; (* escaped-exception supervisions *)
  mutable connections : int; (* lifetime accepted connections *)
  mutable accept_errors : int; (* absorbed accept(2) failures *)
  mutable mem_shed : int; (* admissions shed under memory pressure *)
  mutable mem_aborts : int; (* requests aborted by the memory watchdog *)
  mutable proto_rejects : int; (* legacy / version-mismatched clients *)
  mutable frame_errors : int; (* torn / oversized / garbage frames *)
  mutable io_timeouts : int; (* mid-frame read or response-write overruns *)
}

type conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t; (* one response at a time; guards the fields below *)
  mutable alive : bool; (* writing still makes sense *)
  mutable pending : int; (* admitted jobs that will answer on this conn *)
  mutable eof : bool; (* reader finished: no more requests coming *)
  mutable closed : bool; (* fd closed — never touch it again (fd reuse) *)
  (* reader-thread private state — no lock needed *)
  dec : Frame.decoder;
  mutable greeted : bool; (* hello exchanged *)
  mutable in_started : float option; (* uptime when partial input began *)
}

type job = {
  jconn : conn;
  jid : Json.t;
  jreq : Json.t;
  jframe : int; (* NF1 frame id to tag the response with *)
  jdeadline : Guard.deadline option;
}

type t = {
  cfg : config;
  handler : handler;
  queue : job Queue.t; (* guarded by [lock] *)
  lock : Mutex.t; (* queue + counters + conns *)
  nonempty : Condition.t;
  drained : Condition.t; (* queue empty and nothing in flight *)
  mutable inflight : int;
  stopping : bool Atomic.t;
  c : counters;
  started : Mclock.counter;
  stop_r : Unix.file_descr; (* self-pipe: stop() wakes the accept loop *)
  stop_w : Unix.file_descr;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable tcp_bound : int option; (* actual TCP port once bound *)
}

let create cfg handler =
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  {
    cfg = { cfg with jobs = max 1 cfg.jobs; queue_depth = max 1 cfg.queue_depth };
    handler;
    queue = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    drained = Condition.create ();
    inflight = 0;
    stopping = Atomic.make false;
    c =
      {
        served = 0;
        shed = 0;
        timeouts = 0;
        internal_errors = 0;
        bad_requests = 0;
        worker_restarts = 0;
        connections = 0;
        accept_errors = 0;
        mem_shed = 0;
        mem_aborts = 0;
        proto_rejects = 0;
        frame_errors = 0;
        io_timeouts = 0;
      };
    started = Mclock.counter ();
    stop_r;
    stop_w;
    conns = [];
    readers = [];
    tcp_bound = None;
  }

let uptime_s t = Mclock.elapsed_s t.started
let tcp_port t = t.tcp_bound

(* Callable from a signal handler: no locks, just a flag and a
   self-pipe write to break the accept loop out of select(). *)
let stop t =
  if not (Atomic.exchange t.stopping true) then
    try ignore (Unix.write_substring t.stop_w "x" 0 1) with Unix.Unix_error _ -> ()

let stopping t = Atomic.get t.stopping

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- connection lifecycle ---------------------------------------------- *)

(* A connection is released (fd closed, record dropped from [t.conns])
   as soon as BOTH hold: the reader saw EOF, and no admitted job still
   owes it a response. [pending] is the refcount for the second half;
   jobs retain at admission and release after answering. The [closed]
   flag makes close idempotent and — because every fd touch is guarded
   by [wlock] + [closed] — prevents writes or shutdowns landing on a
   reused fd number. t.lock and conn.wlock are never held together:
   a client too slow to drain its responses (a write blocked under
   wlock) must never stall the global lock. *)

let close_conn_locked conn =
  if not conn.closed then begin
    conn.closed <- true;
    conn.alive <- false;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let forget_conn t conn =
  locked t (fun () -> t.conns <- List.filter (fun c -> c != conn) t.conns)

let conn_retain conn =
  Mutex.lock conn.wlock;
  conn.pending <- conn.pending + 1;
  Mutex.unlock conn.wlock

let conn_release t conn =
  Mutex.lock conn.wlock;
  conn.pending <- conn.pending - 1;
  let done_with = conn.eof && conn.pending = 0 && not conn.closed in
  if done_with then close_conn_locked conn;
  Mutex.unlock conn.wlock;
  if done_with then forget_conn t conn

(* --- responses --------------------------------------------------------- *)

(* Best-effort response write: a client that hung up loses its answer,
   nobody else does (EPIPE never escapes into a worker). With an I/O
   deadline configured the socket carries SO_SNDTIMEO, so a peer that
   stops draining its responses surfaces here as EAGAIN — the write
   gives up, the connection dies, and the overrun is counted instead of
   parking a worker on a full socket buffer forever. [frame] tags the
   response with its request's frame id; [None] writes a bare JSON
   line, for a peer that has not completed the NF1 hello. *)
let answer t ?frame conn (json : Json.t) =
  let timed_out = ref false in
  Mutex.lock conn.wlock;
  (if conn.alive then
     let s =
       match frame with
       | Some fid -> Frame.encode_json ~id:fid json
       | None -> Json.to_string json ^ "\n"
     in
     try Frame.write_all ~write:(Unix.single_write conn.fd) s with
     | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         conn.alive <- false;
         timed_out := true
     | Unix.Unix_error _ | Sys_error _ -> conn.alive <- false);
  Mutex.unlock conn.wlock;
  (* counter update outside wlock: t.lock and conn.wlock never nest *)
  if !timed_out then locked t (fun () -> t.c.io_timeouts <- t.c.io_timeouts + 1)

(* The one error envelope, for the server, its handlers and the
   router alike. *)
let error ?id ~code ?(retryable = false) detail =
  let fields =
    [
      ("status", Json.Str "error");
      ("code", Json.Str code);
      ("retryable", Json.Bool retryable);
      ("detail", Json.Str detail);
    ]
  in
  Json.Obj (match id with None -> fields | Some id -> ("id", id) :: fields)

let with_id ~id = function
  | Json.Obj fields -> Json.Obj (("id", id) :: List.remove_assoc "id" fields)
  | other -> Json.Obj [ ("id", id); ("result", other) ]

let status_response t ~id =
  let depth, inflight, open_conns =
    locked t (fun () -> (Queue.length t.queue, t.inflight, List.length t.conns))
  in
  let c = t.c in
  Json.Obj
    ([
       ("id", id);
       ("status", Json.Str "ok");
       ("uptime_s", Json.Float (uptime_s t));
       ("jobs", Json.Int t.cfg.jobs);
       ( "workers",
         Json.Str (match t.handler.workers with Domains -> "domains" | Threads -> "threads") );
       ("queue_depth", Json.Int depth);
       ("queue_capacity", Json.Int t.cfg.queue_depth);
       ("inflight", Json.Int inflight);
       ("draining", Json.Bool (stopping t));
       ("served", Json.Int c.served);
       ("shed", Json.Int c.shed);
       ("timeouts", Json.Int c.timeouts);
       ("internal_errors", Json.Int c.internal_errors);
       ("bad_requests", Json.Int c.bad_requests);
       ("worker_restarts", Json.Int c.worker_restarts);
       ("connections", Json.Int c.connections);
       ("open_connections", Json.Int open_conns);
       ("accept_errors", Json.Int c.accept_errors);
       ("restarts", Json.Int t.cfg.restarts);
       ("mem_shed", Json.Int c.mem_shed);
       ("mem_aborts", Json.Int c.mem_aborts);
       ("proto_rejects", Json.Int c.proto_rejects);
       ("frame_errors", Json.Int c.frame_errors);
       ("io_timeouts", Json.Int c.io_timeouts);
       ( "tcp_port",
         match t.tcp_bound with None -> Json.Null | Some p -> Json.Int p );
       ( "mem_budget_bytes",
         match Guard.mem_budget () with None -> Json.Null | Some b -> Json.Int b );
     ]
    @ t.handler.status_extra ())

(* --- workers ----------------------------------------------------------- *)

let request_deadline req =
  let within seconds = Some (Guard.deadline ~what:"request" ~seconds) in
  match Json.float_member "deadline_ms" req with
  | Some ms when ms > 0.0 -> within (ms /. 1000.0)
  | Some _ -> None (* deadline_ms <= 0: explicitly unbounded *)
  | None -> within deadline_s

let process t job =
  let id = job.jid in
  let response =
    match job.jdeadline with
    | Some d when Guard.expired d ->
        (* expired while queued: don't burn a compile on a dead request *)
        locked t (fun () -> t.c.timeouts <- t.c.timeouts + 1);
        error ~id ~code:"deadline" "deadline exceeded while queued"
    | deadline -> (
        let body () = t.handler.handle job.jreq in
        (* Guard's ambient budgets are domain-local: threads sharing a
           domain would push onto and pop off one another's stacks. So
           only domain workers install them. A thread worker's request
           is bounded by its handler (the router's forward timeout
           follows the request's deadline) and by the queued-expiry
           check above. *)
        let body =
          match t.handler.workers with
          | Threads -> body
          | Domains -> (
              let body () =
                Guard.with_fuel (Guard.fuel ~what:"request" ~budget:fuel_budget) body
              in
              match deadline with
              | Some d -> fun () -> Guard.with_deadline d body
              | None -> body)
        in
        match body () with
        | resp ->
            locked t (fun () -> t.c.served <- t.c.served + 1);
            with_id ~id resp
        | exception Guard.Deadline_exceeded what ->
            locked t (fun () -> t.c.timeouts <- t.c.timeouts + 1);
            error ~id ~code:"deadline" ("deadline exceeded: " ^ what)
        | exception Guard.Fuel_exhausted what ->
            locked t (fun () -> t.c.timeouts <- t.c.timeouts + 1);
            error ~id ~code:"deadline" ("fuel exhausted: " ^ what)
        | exception Guard.Mem_exceeded what ->
            (* The watchdog aborts the request that was ticking when the
               heap crossed the budget — a recorded incident, not an OS
               OOM-kill of the daemon. Retryable: the abort itself frees
               memory, so a later attempt may well fit. *)
            locked t (fun () -> t.c.mem_aborts <- t.c.mem_aborts + 1);
            error ~id ~code:"mem-pressure" ~retryable:true
              ("memory budget: " ^ what)
        | exception e ->
            locked t (fun () -> t.c.internal_errors <- t.c.internal_errors + 1);
            error ~id ~code:"internal" (Printexc.to_string e))
  in
  answer t ~frame:job.jframe job.jconn response

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec next () =
    match Queue.take_opt t.queue with
    | Some j ->
        t.inflight <- t.inflight + 1;
        Mutex.unlock t.lock;
        Some j
    | None ->
        if stopping t then begin
          Mutex.unlock t.lock;
          None
        end
        else begin
          Condition.wait t.nonempty t.lock;
          next ()
        end
  in
  match next () with
  | None -> ()
  | Some job ->
      Fun.protect
        ~finally:(fun () ->
          conn_release t job.jconn;
          Mutex.lock t.lock;
          t.inflight <- t.inflight - 1;
          if t.inflight = 0 && Queue.is_empty t.queue then Condition.broadcast t.drained;
          Mutex.unlock t.lock)
        (fun () -> process t job);
      worker_loop t

(* Supervision: [process] already guards the handler, so nothing should
   escape — but "should" is not a failure-domain boundary. If something
   does (a write path bug, an allocation failure), the worker restarts
   its loop instead of silently shrinking the pool. During a drain the
   restart condition is the queue, not the stopping flag: admitted
   requests must still be answered, and if this was the last live
   worker, exiting here would leave [run] waiting on [drained]
   forever. *)
let rec worker_main t =
  try worker_loop t
  with _ ->
    let restart =
      locked t (fun () ->
          t.c.worker_restarts <- t.c.worker_restarts + 1;
          (not (stopping t)) || not (Queue.is_empty t.queue))
    in
    if restart then worker_main t

(* --- admission --------------------------------------------------------- *)

let enqueue t conn ~frame ~id req =
  (* Retained up front (outside t.lock — the locks never nest): an
     admitted job owns a ref on its connection until its response is
     written. The shed paths give the ref straight back; they run on
     the reader thread, so [eof] is still false and the release cannot
     be the closing one. *)
  conn_retain conn;
  Mutex.lock t.lock;
  if stopping t then begin
    t.c.shed <- t.c.shed + 1;
    Mutex.unlock t.lock;
    conn_release t conn;
    answer t ~frame conn
      (error ~id ~code:"shutting-down" ~retryable:true
         "server is draining; retry against a fresh instance")
  end
  else if Queue.length t.queue >= t.cfg.queue_depth then begin
    t.c.shed <- t.c.shed + 1;
    Mutex.unlock t.lock;
    conn_release t conn;
    answer t ~frame conn
      (error ~id ~code:"overloaded" ~retryable:true
         (Printf.sprintf "queue full (%d requests); back off and retry"
            t.cfg.queue_depth))
  end
  else if Guard.mem_level () <> `Ok then begin
    (* Memory watchdog, first line of defence: past the shed fraction
       of the memory budget, refuse new work before any in-flight
       request has to be aborted. Same contract as queue overload —
       retryable, so clients back off. *)
    t.c.shed <- t.c.shed + 1;
    t.c.mem_shed <- t.c.mem_shed + 1;
    Mutex.unlock t.lock;
    conn_release t conn;
    answer t ~frame conn
      (error ~id ~code:"overloaded" ~retryable:true
         "memory pressure: heap near budget; back off and retry")
  end
  else begin
    (* the deadline clock starts at admission: queue wait counts *)
    let job =
      { jconn = conn; jid = id; jreq = req; jframe = frame; jdeadline = request_deadline req }
    in
    Queue.add job t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.lock
  end

(* A frame's payload, parsed where it lies in the decoder's buffer. *)
let parse_view (v : Frame.view) = Json.parse_sub v.src ~off:v.off ~len:v.len

(* One frame payload, parsed and dispatched; the response is tagged
   with the request's frame id. *)
let handle_request t conn (v : Frame.view) =
  let frame = v.view_id in
  match parse_view v with
  | Error msg ->
      locked t (fun () -> t.c.bad_requests <- t.c.bad_requests + 1);
      answer t ~frame conn (error ~id:Json.Null ~code:"bad-request" msg)
  | Ok req -> (
      let id = Option.value ~default:Json.Null (Json.member "id" req) in
      match Json.str_member "op" req with
      | Some "status" ->
          (* answered inline by the reader thread: status must work
             even when the queue is full and every worker is busy *)
          answer t ~frame conn (status_response t ~id)
      | _ -> enqueue t conn ~frame ~id req)

(* --- connections ------------------------------------------------------- *)

let hello_ack =
  match Frame.hello () with
  | Json.Obj fields ->
      Json.Obj (fields @ [ ("max_frame_bytes", Json.Int Frame.default_max_payload) ])
  | other -> other

(* One clear line, then close: the answer a client gets when it speaks
   the wrong protocol — newline JSON where NF1 frames are expected, or
   an NF1 version this build does not know. A line is readable by both
   kinds of peer, and closing right away turns a would-be hang into an
   actionable error. *)
let proto_reject t conn detail =
  locked t (fun () -> t.c.proto_rejects <- t.c.proto_rejects + 1);
  answer t conn
    (error ~id:Json.Null ~code:"proto-mismatch"
       (Printf.sprintf "%s; this server speaks the NF1 framed protocol v%d" detail
          Frame.version))

(* Drain every complete frame buffered in the decoder. The first frame
   must be the hello (the version handshake); after that each payload
   is an ordinary request tagged with its frame id — the pipelining
   tag that lets responses complete out of order on one socket. Each
   payload is parsed before the next feed can move it. Returns false
   when the connection must close. *)
let rec drain_frames t conn =
  match Frame.next_view conn.dec with
  | Ok None -> true
  | Ok (Some v) ->
      if conn.greeted then begin
        handle_request t conn v;
        drain_frames t conn
      end
      else begin
        match parse_view v with
        | Ok j -> (
            match Frame.check_hello j with
            | Ok _ ->
                conn.greeted <- true;
                answer t ~frame:v.view_id conn hello_ack;
                drain_frames t conn
            | Error msg ->
                proto_reject t conn msg;
                false)
        | Error _ ->
            proto_reject t conn "first frame is not an NF1 hello";
            false
      end
  | Error e ->
      (* torn, oversized, or garbage: the stream has no resync point,
         so the error is terminal for this connection (and only it). A
         peer that is not NF1 at all — a newline-JSON client, say — is
         a protocol mismatch, not a damaged frame; the decoder checks
         the magic byte by byte, so a leading '{' is refused on
         arrival. *)
      if conn.greeted || e <> Frame.Bad_magic then
        locked t (fun () -> t.c.frame_errors <- t.c.frame_errors + 1);
      (if conn.greeted then
         (* past the hello this peer speaks frames, so the terminal
            error must be a frame too (id 0 — no request to tag it to);
            a retrying client sees well-formed bytes then EOF, not a
            protocol mismatch *)
         answer t ~frame:0 conn
           (error ~id:Json.Null ~code:"frame-error"
              (Format.asprintf "%a; closing connection" Frame.pp_error e))
       else
         match e with
         | Frame.Bad_version v ->
             proto_reject t conn (Printf.sprintf "protocol version %d" v)
         | Frame.Bad_magic -> proto_reject t conn "not an NF1 stream"
         | e ->
             answer t conn
               (error ~id:Json.Null ~code:"frame-error"
                  (Format.asprintf "%a; closing connection" Frame.pp_error e)));
      false

(* The reader loop: select, then read. [io_deadline_s] bounds how long
   a started frame may stay incomplete (the slow-loris bound — a worker
   is never involved, but the conn record and fd must not leak either);
   with no frame started the reader blocks until bytes or shutdown. *)
let serve_conn t conn =
  let buf = Bytes.create 8192 in
  let rec loop () =
    let timeout =
      match (t.cfg.io_deadline_s, conn.in_started) with
      | Some d, Some s -> Float.max 0.0 (s +. d -. uptime_s t)
      | _ -> -1.0
    in
    match Unix.select [ conn.fd ] [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception (Unix.Unix_error _ | Sys_error _) -> ()
    | [], _, _ ->
        (* select times out only with a frame started: it overran *)
        locked t (fun () -> t.c.io_timeouts <- t.c.io_timeouts + 1);
        let resp =
          error ~id:Json.Null ~code:"io-timeout"
            "frame not completed within the I/O deadline"
        in
        (* a greeted peer must see a well-formed frame, not
           a stray line it would decode as garbage *)
        if conn.greeted then answer t ~frame:0 conn resp else answer t conn resp
    | _ -> (
        match Unix.read conn.fd buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception (Unix.Unix_error _ | Sys_error _) -> ()
        | 0 -> ()
        | n ->
            Frame.feed_bytes conn.dec buf ~off:0 ~len:n;
            let keep = drain_frames t conn in
            conn.in_started <-
              (if Frame.mid_frame conn.dec then
                 match conn.in_started with None -> Some (uptime_s t) | s -> s
               else None);
            if keep then loop ())
  in
  loop ();
  (* Reader done: release the connection as soon as the last admitted
     response is out (now, if nothing is pending), and take this thread
     off the join list — a long-lived daemon must not accumulate one
     fd + conn record + reader per served connection. *)
  Mutex.lock conn.wlock;
  conn.eof <- true;
  conn.alive <- false;
  let done_with = conn.pending = 0 && not conn.closed in
  if done_with then close_conn_locked conn;
  Mutex.unlock conn.wlock;
  if done_with then forget_conn t conn;
  let self = Thread.id (Thread.self ()) in
  locked t (fun () ->
      t.readers <- List.filter (fun th -> Thread.id th <> self) t.readers)

(* --- lifecycle --------------------------------------------------------- *)

exception Socket_in_use of string
exception Tcp_in_use of string * int
exception Listen_failed of string

(* Taking over a live daemon's socket file would strand it unreachable,
   and whichever of the two drained first would unlink the other's
   file. Only a file nobody answers on (a daemon killed with -9 leaves
   one behind) is replaced. A path that cannot be connected to for any
   other reason has no daemon behind it either; binding it reports
   why. *)
let socket_in_use path =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  match Unix.connect fd (ADDR_UNIX path) with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* Create, bind and listen one socket. Any failure closes it and
   becomes a one-line [Listen_failed] naming [what], except a taken
   address, which raises [busy]. *)
let listen_on ~what ~busy domain addr backlog =
  let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
  match
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Lazy.force addr);
    Unix.listen fd backlog
  with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let reason =
        match e with
        | Unix.Unix_error (Unix.EADDRINUSE, _, _) -> raise busy
        | Unix.Unix_error (err, _, _) -> Unix.error_message err
        | Not_found -> "host not found"
        | e -> raise e
      in
      raise (Listen_failed (Printf.sprintf "cannot listen on %s: %s" what reason))

let listen_socket path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  listen_on ~what:("socket " ^ path) ~busy:(Socket_in_use path) PF_UNIX
    (lazy (Unix.ADDR_UNIX path)) 64

let resolve_host host =
  if host = "" || host = "*" then Unix.inet_addr_any
  else
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

let listen_tcp host port =
  let fd =
    listen_on
      ~what:(Printf.sprintf "tcp %s:%d" (if host = "" then "*" else host) port)
      ~busy:(Tcp_in_use (host, port)) PF_INET
      (lazy (Unix.ADDR_INET (resolve_host host, port)))
      128
  in
  let bound =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound)

(* Serve until [stop]: accept loop in the calling thread, one reader
   thread per connection, [cfg.jobs] workers of the handler's kind.
   Returns after the drain completes: queue empty, nothing in flight,
   every response written, workers and readers joined, socket file
   removed. *)
let run ?(on_ready = ignore) t =
  if socket_in_use t.cfg.socket_path then raise (Socket_in_use t.cfg.socket_path);
  (* TCP binds first, so the UDS socket file appearing — the ready
     signal clients and the supervisor poll for — implies both
     transports are listening. *)
  let tcp_listener =
    match t.cfg.tcp with
    | None -> None
    | Some (host, port) ->
        let fd, bound = listen_tcp host port in
        t.tcp_bound <- Some bound;
        Some fd
  in
  let listen_fd =
    try listen_socket t.cfg.socket_path
    with e ->
      Option.iter Unix.close tcp_listener;
      t.tcp_bound <- None;
      raise e
  in
  let listeners =
    listen_fd :: (match tcp_listener with None -> [] | Some fd -> [ fd ])
  in
  let workers =
    List.init t.cfg.jobs (fun _ ->
        match t.handler.workers with
        | Domains ->
            let d = Domain.spawn (fun () -> worker_main t) in
            fun () -> Domain.join d
        | Threads ->
            let th = Thread.create worker_main t in
            fun () -> Thread.join th)
  in
  on_ready ();
  let accept_one lfd =
    let is_tcp = Some lfd = tcp_listener in
    match Unix.accept ~cloexec:true lfd with
    | cfd, _ ->
        (* The network budgets ride the socket where the kernel can
           enforce them: SO_SNDTIMEO turns a peer that stops draining
           responses into an EAGAIN at the writer (counted as an I/O
           timeout) instead of a worker parked on a full buffer. *)
        (if t.cfg.io_deadline_s <> None then
           try
             Unix.setsockopt_float cfd Unix.SO_SNDTIMEO
               (Option.get t.cfg.io_deadline_s)
           with Unix.Unix_error _ | Invalid_argument _ -> ());
        (if is_tcp then
           try Unix.setsockopt cfd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
        let conn =
          {
            fd = cfd;
            wlock = Mutex.create ();
            alive = true;
            pending = 0;
            eof = false;
            closed = false;
            dec = Frame.decoder ();
            greeted = false;
            in_started = None;
          }
        in
        (* Register under t.lock BEFORE the reader serves a
           byte: serve_conn deregisters itself at EOF, so the
           registration it undoes must already exist even for a
           connection that hangs up instantly. Holding the lock
           across Thread.create pins the order — the reader's
           opening lock/unlock handshake cannot complete until
           the registration below is published. *)
        Mutex.lock t.lock;
        let reader =
          Thread.create
            (fun () ->
              Mutex.lock t.lock;
              Mutex.unlock t.lock;
              serve_conn t conn)
            ()
        in
        t.c.connections <- t.c.connections + 1;
        t.conns <- conn :: t.conns;
        t.readers <- reader :: t.readers;
        Mutex.unlock t.lock
    | exception Unix.Unix_error (e, _, _) ->
        (* Never let a failed accept kill a daemon with admitted
           work: count it, back off briefly when the process is
           out of fds, and keep serving. *)
        if e <> Unix.EINTR then begin
          locked t (fun () -> t.c.accept_errors <- t.c.accept_errors + 1);
          match e with
          | Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM ->
              Unix.sleepf 0.05
          | _ -> ()
        end
  in
  let rec accept_loop () =
    if not (stopping t) then begin
      (match Unix.select (t.stop_r :: listeners) [] [] (-1.0) with
      | rs, _, _ ->
          if not (stopping t) then
            List.iter (fun lfd -> if List.mem lfd rs then accept_one lfd) listeners
      | exception Unix.Unix_error (e, _, _) ->
          (* EINTR is routine; anything else must not hot-loop *)
          if e <> Unix.EINTR then Unix.sleepf 0.05);
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain: no new connections (the listeners are closed first, so
     connect() starts failing instead of queueing), reader threads shed
     anything they read from now on (stopping is set), workers finish
     every admitted request. *)
  List.iter Unix.close listeners;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  Mutex.lock t.lock;
  Condition.broadcast t.nonempty;
  while not (Queue.is_empty t.queue && t.inflight = 0) do
    Condition.wait t.drained t.lock
  done;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter (fun join -> join ()) workers;
  (* Every response is on the wire: hang up the surviving connections
     (already-released ones are gone from t.conns) and collect their
     readers. The [closed] check under wlock keeps the shutdown off fd
     numbers a racing reader-side close may have recycled. *)
  let conns, readers = locked t (fun () -> (t.conns, t.readers)) in
  List.iter
    (fun conn ->
      Mutex.lock conn.wlock;
      if not conn.closed then (
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Mutex.unlock conn.wlock)
    conns;
  List.iter Thread.join readers;
  (* Readers close their own conn at EOF; sweep whatever is left. *)
  List.iter
    (fun conn ->
      Mutex.lock conn.wlock;
      close_conn_locked conn;
      Mutex.unlock conn.wlock)
    conns;
  Unix.close t.stop_r;
  Unix.close t.stop_w

(* --- client helpers ---------------------------------------------------- *)

(* Shared by nascentc client, the router, the ledger and the tests:
   the one place that knows how to speak a request/response exchange,
   including backoff against retryable errors. *)
module Client = struct
  type address = Uds of string | Tcp of string * int

  (* "host:port" (no slash, numeric suffix) is TCP; anything else is a
     socket path. A bare relative path never contains ':' in practice,
     and anything with '/' is unambiguous. *)
  let parse_address s =
    if String.contains s '/' then Uds s
    else
      match String.rindex_opt s ':' with
      | Some i when i > 0 && i < String.length s - 1 -> (
          let host = String.sub s 0 i in
          let port = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 -> Tcp (host, p)
          | _ -> Uds s)
      | _ -> Uds s

  let address_to_string = function
    | Uds p -> p
    | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

  exception Handshake of string
  (* the server rejected (or garbled) the NF1 hello: a protocol
     mismatch, not a transient — retrying the same bytes cannot help *)

  type connection = {
    cfd : Unix.file_descr;
    fdec : Frame.decoder;
    rbuf : Bytes.t; (* read buffer, reused by every receive *)
    mutable next_fid : int; (* pipelining tag allocator *)
    mutable recv_timeout_s : float option;
  }

  let close conn = try Unix.close conn.cfd with Unix.Unix_error _ -> ()

  (* A bounded wait for response bytes: a stalled or silent server
     surfaces as ETIMEDOUT (retryable) instead of a client hung
     forever on read(2). *)
  let wait_readable conn =
    match conn.recv_timeout_s with
    | None -> ()
    | Some d ->
        let rec go () =
          match Unix.select [ conn.cfd ] [] [] d with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | [], _, _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "recv", ""))
          | _ -> ()
        in
        go ()

  (* Read the next complete frame. [Ok None] is EOF; a decode error is
     surfaced as such (the caller decides retryability — a CRC tear is
     transient, a bad magic means the peer is not speaking NF1). *)
  let recv_frame conn =
    Frame.read_frame ~buf:conn.rbuf
      ~read:(fun b off len ->
        wait_readable conn;
        Unix.read conn.cfd b off len)
      conn.fdec

  let send_frame conn ~fid (j : Json.t) =
    Frame.write_all ~write:(Unix.single_write conn.cfd) (Frame.encode_json ~id:fid j)

  (* Both transports run the same version handshake — hello out,
     hello-ack back — before any request rides the connection; only
     the socket family and TCP_NODELAY differ. *)
  let connect_addr ?recv_timeout_s addr =
    let domain, sockaddr =
      match addr with
      | Uds path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port))
    in
    let conn =
      {
        cfd = Unix.socket ~cloexec:true domain SOCK_STREAM 0;
        fdec = Frame.decoder ();
        rbuf = Bytes.create 8192;
        next_fid = 1;
        recv_timeout_s;
      }
    in
    let fail exn =
      close conn;
      raise exn
    in
    match
      Unix.connect conn.cfd sockaddr;
      (if domain = Unix.PF_INET then
         try Unix.setsockopt conn.cfd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
      send_frame conn ~fid:0 (Frame.hello ());
      recv_frame conn
    with
    | exception e -> fail e
    | Ok (Some f) -> (
        match Json.parse f.Frame.payload with
        | Ok j -> (
            match Frame.check_hello j with
            | Ok _ -> conn
            | Error msg -> fail (Handshake msg))
        | Error _ -> fail (Handshake "server hello is not JSON"))
    | Ok None -> fail (Unix.Unix_error (Unix.ECONNRESET, "connect", "hello"))
    | Error e ->
        (* the peer answered the hello with a line (or worse): it does
           not speak NF1 *)
        fail (Handshake (Format.asprintf "%a" Frame.pp_error e))

  let connect path = connect_addr (Uds path)

  let with_conn path f =
    let conn = connect path in
    Fun.protect ~finally:(fun () -> close conn) (fun () -> f conn)

  let with_addr ?recv_timeout_s addr f =
    let conn = connect_addr ?recv_timeout_s addr in
    Fun.protect ~finally:(fun () -> close conn) (fun () -> f conn)

  (* --- pipelining --------------------------------------------------------

     Many requests in flight on one socket: [pipeline_send] tags each
     with a fresh frame id, [pipeline_recv] returns responses in the
     order the server finishes them. *)

  let pipeline_send conn (req : Json.t) =
    let fid = conn.next_fid in
    conn.next_fid <- fid + 1;
    send_frame conn ~fid req;
    fid

  let pipeline_recv conn =
    match recv_frame conn with
    | Ok (Some f) -> (
        match Json.parse f.Frame.payload with
        | Ok j -> Ok (Some (f.Frame.id, j))
        | Error msg -> Error (`Garbled msg))
    | Ok None -> Ok None
    | Error e -> Error (`Frame e)

  (* One exchange, with the non-exception failure modes kept distinct:
     a connection that closed before a complete response (expected when
     racing a draining/restarting daemon — retryable) vs. a response
     that arrived but does not parse (a protocol bug — fatal) vs. a
     frame-level decode error (a torn response — retryable for CRC,
     fatal for a protocol mismatch). Unix errors propagate.
     [recv_timeout_s] replaces the connection's receive budget from this
     exchange on, so a long-lived connection can give each request its
     own. *)
  let exchange ?recv_timeout_s conn (req : Json.t) =
    Option.iter (fun d -> conn.recv_timeout_s <- Some d) recv_timeout_s;
    let fid = pipeline_send conn req in
    let rec await () =
      match pipeline_recv conn with
      | Ok (Some (id, resp)) when id = fid -> Ok resp
      | Ok (Some _) -> await () (* stale tag from an abandoned request *)
      | Ok None -> Error `Closed
      | Error (`Garbled msg) -> Error (`Garbled msg)
      | Error (`Frame e) -> Error (`Frame e)
    in
    await ()

  let request conn (req : Json.t) : (Json.t, string) result =
    match exchange conn req with
    | Ok resp -> Ok resp
    | Error (`Garbled msg) -> Error msg
    | Error (`Frame e) -> Error (Format.asprintf "%a" Frame.pp_error e)
    | Error `Closed -> Error "connection closed before a response arrived"
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

  (* One-shot request with exponential backoff + deterministic jitter.
     Retryable: connection refusals (daemon restarting), responses the
     server marks retryable (overload shedding, drain), a connection
     torn down mid-exchange (EPIPE/ECONNRESET or EOF before a
     response), a receive that outwaits [recv_timeout_s], and a
     CRC-torn response frame — the expected outcomes of racing a
     draining/restarting daemon or a hostile network, and safe to
     replay because requests are idempotent: compiles are memoized,
     status/burn are read-only. Fatal: a response that parses as
     neither (protocol bug) and a protocol-mismatch handshake — the
     peer will reject the same bytes forever. *)
  (* Each attempt re-resolves and re-connects the address from
     scratch, so the retry schedule rides through a supervised daemon
     restart: the old socket's refusal/teardown is retryable, and the
     replacement process re-binds the same path/port. [?max_elapsed_s]
     bounds the whole schedule so retry-through-restart cannot wait
     unboundedly (exhaustion surfaces as the usual gave-up error). *)
  let request_retry ?(policy = Retry.default) ?sleep ?max_elapsed_s
      ?recv_timeout_s ~seed path (req : Json.t) : (Json.t, string) result =
    let addr = parse_address path in
    let attempt ~attempt:_ =
      match with_addr ?recv_timeout_s addr (fun conn -> exchange conn req) with
      | Ok resp ->
          if
            Json.str_member "status" resp = Some "error"
            && Json.bool_member "retryable" resp = Some true
          then
            Error
              (`Retryable
                (Option.value ~default:"retryable error"
                   (Json.str_member "detail" resp)))
          else Ok resp
      | Error (`Garbled msg) -> Error (`Fatal msg)
      | Error (`Frame Frame.Crc_mismatch) ->
          Error (`Retryable "response frame failed its CRC")
      | Error (`Frame e) -> Error (`Fatal (Format.asprintf "%a" Frame.pp_error e))
      | Error `Closed ->
          Error (`Retryable "connection closed before a response arrived")
      | exception
          Unix.Unix_error
            ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.ECONNRESET
              | Unix.EPIPE | Unix.ETIMEDOUT ),
              _,
              _ )
        -> Error (`Retryable "cannot connect")
      | exception Unix.Unix_error (e, _, _) -> Error (`Fatal (Unix.error_message e))
      | exception Handshake msg -> Error (`Fatal ("protocol mismatch: " ^ msg))
    in
    match Retry.run ?sleep ?max_elapsed_s ~policy ~seed attempt with
    | Retry.Ok_after (_, resp) -> Ok resp
    | Retry.Gave_up (n, msg) ->
        Error (Printf.sprintf "gave up after %d attempt(s): %s" n msg)
end
