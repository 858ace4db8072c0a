(* Per-key circuit breaker: the compile server's graceful-degradation
   switch. After [threshold] CONSECUTIVE failures recorded against a
   key (a placement scheme), the breaker opens: callers are told to
   fall back (the always-safe NI floor) instead of burning worker time
   on a scheme that keeps faulting. After [cooldown_s] one caller is
   admitted as a probe (half-open); its success closes the breaker,
   its failure re-opens the clock. A probe that never reports back
   (lost to a crash or deadline) re-arms after another cooldown, so
   half-open can never become a permanent fallback.

   Time is an explicit [~now] parameter (monotonic seconds from any
   epoch the caller likes), so the state machine is a pure function of
   its call sequence — unit-testable without sleeping. The table is
   mutex-protected: decide/record run on concurrent worker domains. *)

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type entry = {
  mutable failures : int; (* consecutive failures while closed *)
  mutable st : state;
  mutable opened_at : float;
      (* Open: when the breaker opened; Half_open: when the current
         probe was issued. Either way "the clock started here" — after
         [cooldown_s] the next decide may (re-)probe. *)
}

type t = {
  threshold : int;
  cooldown_s : float;
  table : (string, entry) Hashtbl.t; (* guarded by [lock] *)
  lock : Mutex.t;
  mutable trips : int; (* lifetime Closed -> Open transitions *)
}

let create ?(threshold = 3) ?(cooldown_s = 2.0) () =
  {
    threshold = max 1 threshold;
    cooldown_s = Float.max 0.0 cooldown_s;
    table = Hashtbl.create 8;
    lock = Mutex.create ();
    trips = 0;
  }

let entry t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { failures = 0; st = Closed; opened_at = 0.0 } in
      Hashtbl.replace t.table key e;
      e

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let decide t ~now key =
  locked t @@ fun () ->
  let e = entry t key in
  match e.st with
  | Closed -> `Allow
  | Half_open ->
      (* A probe is in flight — but a probe whose outcome was never
         recorded (its worker crashed, its deadline fired before the
         caller could report) must not wedge the key in fallback
         forever: after another cooldown the probe is re-armed. *)
      if now -. e.opened_at >= t.cooldown_s then begin
        e.opened_at <- now;
        `Probe
      end
      else `Fallback
  | Open ->
      if now -. e.opened_at >= t.cooldown_s then begin
        e.st <- Half_open;
        e.opened_at <- now (* the probe-staleness clock starts now *);
        `Probe
      end
      else `Fallback

let record t ~now key ~ok =
  locked t @@ fun () ->
  let e = entry t key in
  if ok then begin
    e.failures <- 0;
    e.st <- Closed
  end
  else
    match e.st with
    | Half_open ->
        (* failed probe: re-open and restart the cooldown clock *)
        e.st <- Open;
        e.opened_at <- now
    | Open -> e.opened_at <- now
    | Closed ->
        e.failures <- e.failures + 1;
        if e.failures >= t.threshold then begin
          e.st <- Open;
          e.opened_at <- now;
          t.trips <- t.trips + 1
        end

let state t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | None -> Closed
  | Some e -> e.st

let trips t = locked t @@ fun () -> t.trips

let snapshot t =
  locked t @@ fun () ->
  Hashtbl.fold (fun key e acc -> (key, e.st, e.failures) :: acc) t.table []
  |> List.sort compare
