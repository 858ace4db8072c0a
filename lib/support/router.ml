(* Consistent-hash shard router with Breaker-backed health. See
   router.mli for the routing/health/failover contract. *)

type shard = { name : string; address : Server.Client.address }

type counters = {
  mutable forwards : int; (* requests forwarded (first attempts) *)
  mutable failovers : int; (* transport failures moved to the next shard *)
  mutable no_shard : int; (* requests that exhausted every candidate *)
  mutable probes : int; (* health probes sent *)
  mutable probe_failures : int;
  mutable connects : int; (* shard connections opened by forwards *)
}

type t = {
  shards : shard array;
  ring : (int * int) array; (* (point, shard index), sorted by point *)
  breaker : Breaker.t;
  probe_interval_s : float;
  forward_timeout_s : float;
  clock : Mclock.counter;
  c : counters;
  lock : Mutex.t; (* counters + per-shard forwarded + idle *)
  forwarded : int array; (* per-shard forwarded requests *)
  idle : Server.Client.connection list array; (* per-shard pool *)
  mutable prober : Thread.t option;
  stop_flag : bool Atomic.t;
}

(* First 62 bits of the md5 — stable across runs and processes, which
   is what keeps shard caches hot across router restarts. *)
let hash_point s =
  let d = Digest.string s in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int

(* Ring points per shard, and a health probe's receive budget. *)
let replicas = 64
let probe_timeout_s = 2.0

let create ?(threshold = 3) ?(cooldown_s = 2.0) ?(probe_interval_s = 0.5)
    ?(forward_timeout_s = 35.0) ~shards () =
  if shards = [] then invalid_arg "Router.create: no shards";
  let shards = Array.of_list shards in
  let ring =
    Array.init
      (Array.length shards * replicas)
      (fun i ->
        let s = i / replicas and r = i mod replicas in
        (hash_point (Printf.sprintf "%s#%d" shards.(s).name r), s))
  in
  Array.sort compare ring;
  {
    shards;
    ring;
    breaker = Breaker.create ~threshold ~cooldown_s ();
    probe_interval_s;
    forward_timeout_s;
    clock = Mclock.counter ();
    c =
      { forwards = 0; failovers = 0; no_shard = 0; probes = 0; probe_failures = 0; connects = 0 };
    lock = Mutex.create ();
    forwarded = Array.make (Array.length shards) 0;
    idle = Array.make (Array.length shards) [];
    prober = None;
    stop_flag = Atomic.make false;
  }

let now_s t = Mclock.elapsed_s t.clock

(* The routing key: the request's content fields in canonical (sorted)
   order, with the per-call envelope stripped — two requests that
   would hit the same memo cell must hash identically, or routing
   would scatter a client's retries across shards and throw away the
   cache locality sharding exists to preserve. "tier" changes nothing
   a compile does, but older clients and prewarms send it; keeping it
   out of the key keeps hot keys on the shard that warmed them. *)
let envelope_fields = [ "id"; "deadline_ms"; "tier"; "retries" ]

let shard_key (req : Json.t) =
  match req with
  | Json.Obj fields ->
      let content =
        List.filter (fun (k, _) -> not (List.mem k envelope_fields)) fields
      in
      let content = List.sort (fun (a, _) (b, _) -> compare a b) content in
      Json.to_string (Json.Obj content)
  | other -> Json.to_string other

(* Ring walk: start at the key's point, collect each shard the first
   time it appears — the failover order. *)
let route t key =
  let point = hash_point key in
  let n = Array.length t.ring in
  let rec bsearch lo hi =
    (* first ring index with point >= key point (wrapping) *)
    if lo >= hi then lo mod n
    else
      let mid = (lo + hi) / 2 in
      if fst t.ring.(mid) < point then bsearch (mid + 1) hi else bsearch lo mid
  in
  let start = bsearch 0 n in
  let seen = Array.make (Array.length t.shards) false in
  let order = ref [] in
  for i = 0 to n - 1 do
    let _, s = t.ring.((start + i) mod n) in
    if not seen.(s) then begin
      seen.(s) <- true;
      order := s :: !order
    end
  done;
  List.rev_map (fun s -> t.shards.(s)) !order

let healthy t shard = Breaker.state t.breaker shard.name <> Breaker.Open

let shard_index t shard =
  let rec go i = if t.shards.(i).name = shard.name then i else go (i + 1) in
  go 0

let record t shard ~ok = Breaker.record t.breaker ~now:(now_s t) shard.name ~ok

(* The receive budget for one forwarded request: its own deadline plus
   slack when it carries one (the shard will answer "deadline" well
   inside that), the configured default otherwise. Never unbounded — a
   wedged shard must cost this router worker a bounded wait, then a
   failover, not a hang. *)
let forward_timeout t req =
  match Json.float_member "deadline_ms" req with
  | Some ms when ms > 0.0 -> (ms /. 1000.0) +. 5.0
  | _ -> t.forward_timeout_s

(* --- the connection pool ------------------------------------------------ *)

let connect t i ~timeout =
  Mutex.lock t.lock;
  t.c.connects <- t.c.connects + 1;
  Mutex.unlock t.lock;
  Server.Client.connect_addr ~recv_timeout_s:timeout t.shards.(i).address

let take_idle t i =
  Mutex.lock t.lock;
  let conn =
    match t.idle.(i) with
    | conn :: rest ->
        t.idle.(i) <- rest;
        Some conn
    | [] -> None
  in
  Mutex.unlock t.lock;
  conn

(* A stopped router keeps nothing: [stop] sets the flag before it
   empties the pool under the same lock, so a connection is either
   emptied by [stop] or closed here. *)
let put_idle t i conn =
  Mutex.lock t.lock;
  let keep = not (Atomic.get t.stop_flag) in
  if keep then t.idle.(i) <- conn :: t.idle.(i);
  Mutex.unlock t.lock;
  if not keep then Server.Client.close conn

(* One exchange with shard [i], on an idle connection when the pool has
   one. Only a complete, parseable response puts the connection back;
   every other outcome closes it. An idle connection that turns out
   dead — EOF before the response, EPIPE, ECONNRESET: what a shard
   restart or its idle reaper leaves behind — is replaced by one fresh
   connect before anything counts against the shard (requests are
   idempotent, so resending is safe). A failure on a fresh connection is
   the shard's, returned or raised as it came. *)
let exchange t i req ~timeout =
  let rec attempt conn ~pooled =
    let retry () =
      Server.Client.close conn;
      attempt (connect t i ~timeout) ~pooled:false
    in
    match Server.Client.exchange ~recv_timeout_s:timeout conn req with
    | Ok resp ->
        put_idle t i conn;
        Ok resp
    | Error `Closed when pooled -> retry ()
    | Error _ as e ->
        Server.Client.close conn;
        e
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) when pooled ->
        retry ()
    | exception e ->
        Server.Client.close conn;
        raise e
  in
  match take_idle t i with
  | Some conn -> attempt conn ~pooled:true
  | None -> attempt (connect t i ~timeout) ~pooled:false

(* Forward [req] along the failover order: unhealthy shards are
   skipped (unless every candidate is unhealthy — then trying beats
   refusing), transport-level failures record a breaker failure and
   move on, and any complete response is THE response. *)
let forward t (req : Json.t) =
  let candidates = route t (shard_key req) in
  let all_open = not (List.exists (healthy t) candidates) in
  let timeout = forward_timeout t req in
  let rec go tried = function
    | [] ->
        Mutex.lock t.lock;
        t.c.no_shard <- t.c.no_shard + 1;
        Mutex.unlock t.lock;
        Json.Obj
          [
            ("status", Json.Str "error");
            ("code", Json.Str "no-shard");
            ("retryable", Json.Bool true);
            ( "detail",
              Json.Str
                (Printf.sprintf "no shard could serve the request (%d tried)" tried)
            );
          ]
    | shard :: rest when all_open || healthy t shard -> (
        let i = shard_index t shard in
        Mutex.lock t.lock;
        if tried = 0 then t.c.forwards <- t.c.forwards + 1
        else t.c.failovers <- t.c.failovers + 1;
        t.forwarded.(i) <- t.forwarded.(i) + 1;
        Mutex.unlock t.lock;
        match exchange t i req ~timeout with
        | Ok resp ->
            record t shard ~ok:true;
            resp
        | Error (`Garbled msg) ->
            (* a response arrived but does not parse: the shard is
               alive; surface the protocol bug instead of retrying it
               elsewhere *)
            record t shard ~ok:true;
            Json.Obj
              [
                ("status", Json.Str "error");
                ("code", Json.Str "bad-upstream");
                ("retryable", Json.Bool false);
                ("detail", Json.Str ("unparseable shard response: " ^ msg));
              ]
        | Error `Closed | Error (`Frame _) ->
            record t shard ~ok:false;
            go (tried + 1) rest
        | exception Unix.Unix_error (_, _, _) ->
            record t shard ~ok:false;
            go (tried + 1) rest
        | exception Server.Client.Handshake _ ->
            record t shard ~ok:false;
            go (tried + 1) rest)
    | _ :: rest -> go tried rest
  in
  go 0 candidates

(* --- health probes ---------------------------------------------------- *)

(* A probe always connects fresh: it asks whether the shard accepts
   connections, which a pooled connection cannot tell. *)
let probe_once t =
  Array.iter
    (fun shard ->
      if not (Atomic.get t.stop_flag) then begin
        Mutex.lock t.lock;
        t.c.probes <- t.c.probes + 1;
        Mutex.unlock t.lock;
        let ok =
          match
            Server.Client.with_addr ~recv_timeout_s:probe_timeout_s
              shard.address
              (fun conn ->
                Server.Client.exchange conn (Json.Obj [ ("op", Json.Str "status") ]))
          with
          | Ok _ -> true
          | Error _ -> false
          | exception _ -> false
        in
        if not ok then begin
          Mutex.lock t.lock;
          t.c.probe_failures <- t.c.probe_failures + 1;
          Mutex.unlock t.lock
        end;
        record t shard ~ok
      end)
    t.shards

let start t =
  if t.prober = None then begin
    Atomic.set t.stop_flag false;
    t.prober <-
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get t.stop_flag) do
               probe_once t;
               (* sleep in small steps so stop is prompt *)
               let slept = ref 0.0 in
               while
                 (not (Atomic.get t.stop_flag)) && !slept < t.probe_interval_s
               do
                 Thread.delay 0.05;
                 slept := !slept +. 0.05
               done
             done)
           ())
  end

let stop t =
  Atomic.set t.stop_flag true;
  (match t.prober with
  | None -> ()
  | Some th ->
      Thread.join th;
      t.prober <- None);
  Mutex.lock t.lock;
  let idle = Array.to_list t.idle in
  Array.fill t.idle 0 (Array.length t.idle) [];
  Mutex.unlock t.lock;
  List.iter (List.iter Server.Client.close) idle

(* --- the Server handler ------------------------------------------------ *)

let status_extra t () =
  let shards =
    Array.to_list
      (Array.mapi
         (fun i shard ->
           Json.Obj
             [
               ("name", Json.Str shard.name);
               ("address", Json.Str (Server.Client.address_to_string shard.address));
               ( "state",
                 Json.Str (Breaker.state_name (Breaker.state t.breaker shard.name))
               );
               ("forwarded", Json.Int t.forwarded.(i));
             ])
         t.shards)
  in
  let c = t.c in
  [
    ( "router",
      Json.Obj
        [
          ("shards", Json.List shards);
          ("forwards", Json.Int c.forwards);
          ("failovers", Json.Int c.failovers);
          ("no_shard", Json.Int c.no_shard);
          ("probes", Json.Int c.probes);
          ("probe_failures", Json.Int c.probe_failures);
          ("connects", Json.Int c.connects);
          ("ejections", Json.Int (Breaker.trips t.breaker));
        ] );
  ]

(* Forwarding only waits on shard sockets: its workers are threads. *)
let handler t =
  {
    Server.handle = (fun req -> forward t req);
    status_extra = status_extra t;
    workers = Server.Threads;
  }
