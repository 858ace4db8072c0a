(* The compile service's request handler: what a request MEANS, layered
   on Nascent_support.Server's transport (which owns sockets, admission
   control, deadlines and drain).

   Operations:
   - "compile": lower + optimize (+ optionally interpret) one program —
     a MiniF source string or a built-in benchmark name — under a
     requested (scheme, kind, impl, verify, oracle, fault) configuration,
     read and echoed by Config's one wire codec — "oracle": true additionally runs the Fourier-Motzkin elimination
     sweep and the per-compile translation validator, whose verdict is
     returned as "validated" (a refused certificate degrades the
     response and feeds the breaker like a rolled-back pass).
     Results are served through a content-addressed Memo cache (same
     key discipline as the experiment harness: source + full
     Config.cache_key), so a warm daemon answers repeated requests
     without re-optimizing.
   - "burn": spin on the ambient tick until a budget fires — the
     deterministic stand-in for a hung compile, used by the CI smoke
     and the tests to exercise the deadline path end to end.

   Graceful degradation: a per-scheme circuit breaker. Every compile at
   the requested scheme records success (no incidents) or failure (at
   least one rolled-back pass); after [breaker_threshold] consecutive
   failures the scheme trips and requests for it are routed to the
   always-safe NI floor — still a correct, fully checked compile, per
   the fail-safe pipeline's contract — until a cooldown probe at the
   real scheme succeeds. A compile aborted by its deadline or fuel
   budget records a failure too (so a lost probe cannot wedge the
   breaker half-open); invalid-program errors record nothing — they
   are the input's fault. Fallback compiles never feed the breaker:
   they say nothing about the failing scheme's health. NI itself is
   the floor and bypasses the breaker entirely. *)

module B = Nascent_benchmarks.Suite
module Ir = Nascent_ir
module Core = Nascent_core
module Config = Core.Config
module Optimizer = Core.Optimizer
module Run = Nascent_interp.Run
module Json = Nascent_support.Json
module Server = Nascent_support.Server
module Breaker = Nascent_support.Breaker
module Memo = Nascent_support.Memo
module Guard = Nascent_support.Guard
module Mclock = Nascent_support.Mclock

(* Everything deterministic about a compile, in cacheable form. *)
type compiled = {
  r_incidents : Optimizer.incident list;
  r_faults_injected : int;
  r_checks_before : int;
  r_checks_after : int;
  r_validated : bool option;
      (* [--oracle] requests: did the per-compile translation validator
         certify every reference check site? [None] = not requested *)
  r_run : run_outcome option;
}

and run_outcome = {
  ro_checks : int;
  ro_instrs : int;
  ro_trap : string option;
  ro_error : string option;
}

type t = {
  breaker : Breaker.t;
  clock : Mclock.counter; (* breaker time base: uptime seconds *)
  cache : compiled Memo.t;
  lock : Mutex.t; (* guards the counters below *)
  mutable compiles : int;
  mutable degraded : int; (* responses carrying incidents *)
  mutable fallbacks : int; (* breaker-routed to the NI floor *)
  mutable incidents_total : int;
  shard_name : string option;
      (* identity behind a shard router, echoed as the "shard" status
         field so one status sweep tells which daemon answered *)
}

let counted t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(breaker_threshold = 3) ?(breaker_cooldown_s = 2.0) ?shard_name () =
  {
    breaker = Breaker.create ~threshold:breaker_threshold ~cooldown_s:breaker_cooldown_s ();
    clock = Mclock.counter ();
    cache = Memo.create ();
    lock = Mutex.create ();
    compiles = 0;
    degraded = 0;
    fallbacks = 0;
    incidents_total = 0;
    shard_name;
  }

exception Bad_request of string

(* --- request parsing --------------------------------------------------- *)

let parse_source req =
  match (Json.str_member "source" req, Json.str_member "benchmark" req) with
  | Some src, None -> ("<request>", src)
  | None, Some name -> (
      match B.find name with
      | Some b -> (name, b.B.source)
      | None -> raise (Bad_request ("no such built-in benchmark: " ^ name)))
  | Some _, Some _ -> raise (Bad_request "give either \"source\" or \"benchmark\", not both")
  | None, None -> raise (Bad_request "compile request needs \"source\" or \"benchmark\"")

(* --- compile ----------------------------------------------------------- *)

let cell_key ~src ~config ~want_run =
  Memo.key
    [ src; Config.cache_key config; (if want_run then "run" else "norun") ]

let compile_cell t ~src ~config ~want_run =
  let key = cell_key ~src ~config ~want_run in
  let computed = ref false in
  let cell =
    Memo.find_or_compute t.cache ~key @@ fun () ->
    computed := true;
    let ir = Ir.Lower.of_source src in
    let opt, stats = Optimizer.optimize ~config ir in
    let r_run =
      if want_run then
        let o = Run.run opt in
        Some
          {
            ro_checks = o.Run.checks;
            ro_instrs = o.Run.instrs;
            ro_trap = o.Run.trap;
            ro_error = o.Run.error;
          }
      else None
    in
    {
      r_incidents = stats.Optimizer.incidents;
      r_faults_injected = stats.Optimizer.faults_injected;
      r_checks_before = stats.Optimizer.static_checks_before;
      r_checks_after = stats.Optimizer.static_checks_after;
      r_validated = Optimizer.validated stats;
      r_run;
    }
  in
  (cell, not !computed)

(* A degraded response's own incident records: the service, not a
   pass, explains why. *)
let service_incident ~pass cause detail =
  {
    Optimizer.inc_pass = pass;
    inc_func = "";
    inc_cause = cause;
    inc_detail = detail;
    inc_elapsed_s = 0.0;
  }

let validation_incident =
  service_incident ~pass:"validate" Optimizer.Validation_refused
    "translation validation refused the certificate: some reference check site \
     is no longer provably covered"

(* Older clients and the ledger's prewarm still send "tier". Every
   compile runs its requested scheme, so both accepted values mean the
   same thing; any other value is still a client error. *)
let check_tier req =
  match Json.str_member "tier" req with
  | None | Some ("auto" | "sync") -> ()
  | Some s -> raise (Bad_request ("unknown tier mode " ^ s ^ " (want auto|sync)"))

let handle_compile t req =
  let name, src = parse_source req in
  let requested =
    match Config.of_json req with Ok c -> c | Error e -> raise (Bad_request e)
  in
  let scheme = requested.Config.scheme in
  let want_run = Option.value ~default:false (Json.bool_member "run" req) in
  check_tier req;
  let sname = Config.scheme_name scheme in
  let now () = Mclock.elapsed_s t.clock in
  let t0 = Mclock.counter () in
  (* The NI floor bypasses the breaker: it IS the fallback. *)
  let decision =
    if scheme = Config.NI then `Allow else Breaker.decide t.breaker ~now:(now ()) sname
  in
  let fallback = decision = `Fallback in
  let used_scheme = if fallback then Config.NI else scheme in
  let config = { requested with Config.scheme = used_scheme } in
  (* Only compiles at the REQUESTED scheme feed its breaker. *)
  let record_attempt ok =
    if (not fallback) && scheme <> Config.NI then
      Breaker.record t.breaker ~now:(now ()) sname ~ok
  in
  let cell, cached =
    match compile_cell t ~src ~config ~want_run with
    | result -> result
    | exception ((Failure _ | Ir.Lower.Lower_error _ | Ir.Verify.Invalid_ir _) as e)
      ->
        (* the program's fault, not the scheme's: never feeds the breaker *)
        raise e
    | exception e ->
        (* A deadline, fuel exhaustion or internal error aborted the
           attempt before it could produce incidents. The breaker must
           still hear about it — in particular a `Probe that dies here
           would otherwise leave the key half-open with no recorded
           outcome. *)
        record_attempt false;
        raise e
  in
  (* A refused translation-validation certificate is a scheme failure
     exactly like a rolled-back pass: the optimizer produced output it
     could not prove safe, so the breaker hears about it. *)
  let ok = cell.r_incidents = [] && cell.r_validated <> Some false in
  record_attempt ok;
  counted t (fun () ->
      t.compiles <- t.compiles + 1;
      if fallback then t.fallbacks <- t.fallbacks + 1;
      if not ok then t.degraded <- t.degraded + 1;
      t.incidents_total <-
        t.incidents_total
        + List.length cell.r_incidents
        + (if cell.r_validated = Some false then 1 else 0));
  let degraded = (not ok) || fallback in
  let validated_json =
    match cell.r_validated with None -> Json.Null | Some b -> Json.Bool b
  in
  let wire = Config.to_json requested in
  let echo field = Option.get (Json.member field wire) in
  Json.Obj
    ([
       ("status", Json.Str (if degraded then "degraded" else "ok"));
       ("code", Json.Int (if degraded then 4 else 0));
       ("op", Json.Str "compile");
       ("program", Json.Str name);
       ("scheme_requested", Json.Str sname);
       ("scheme_used", Json.Str (Config.scheme_name used_scheme));
       ("kind", echo "kind");
       ("impl", echo "impl");
       ("verify", echo "verify");
       ("oracle", echo "oracle");
       ("validated", validated_json);
       ("fault", echo "fault");
       ("breaker", Json.Str (Breaker.state_name (Breaker.state t.breaker sname)));
       ("fallback", Json.Bool fallback);
       ("checks_before", Json.Int cell.r_checks_before);
       ("checks_after", Json.Int cell.r_checks_after);
       ("faults_injected", Json.Int cell.r_faults_injected);
       (* every degraded response carries at least one incident: a
          breaker fallback explains itself as a service-level record *)
       ( "incidents",
         Json.List
           (List.map (Optimizer.incident_to_json ~brief:true)
              ((if fallback then
                  [
                    service_incident ~pass:"service" Optimizer.Breaker_open
                      (Printf.sprintf "scheme %s breaker open; compiled at the NI floor"
                         sname);
                  ]
                else [])
              @ (if cell.r_validated = Some false then [ validation_incident ] else [])
              @ cell.r_incidents)) );
       ("cached", Json.Bool cached);
       ("elapsed_ms", Json.Float (1000.0 *. Mclock.elapsed_s t0));
     ]
    @
    match cell.r_run with
    | None -> []
    | Some ro ->
        [
          ( "run",
            Json.Obj
              [
                ("checks", Json.Int ro.ro_checks);
                ("instrs", Json.Int ro.ro_instrs);
                ( "trap",
                  match ro.ro_trap with None -> Json.Null | Some s -> Json.Str s );
                ( "error",
                  match ro.ro_error with None -> Json.Null | Some s -> Json.Str s );
              ] );
        ])

(* Deterministic stand-in for a hung compile: spins on the ambient tick
   until the request's deadline or fuel budget fires (the server maps
   either to a "deadline" response). Its own local budget bounds even a
   server configured with no deadline and no request fuel. *)
let handle_burn () =
  Guard.with_fuel (Guard.fuel ~what:"burn" ~budget:200_000_000) (fun () ->
      let rec spin () =
        Guard.tick_ambient ();
        spin ()
      in
      spin ())

let handle t req =
  match Json.str_member "op" req with
  | Some "compile" -> (
      try handle_compile t req with
      | Bad_request msg -> Server.error ~code:"bad-request" msg
      | Failure msg | Ir.Lower.Lower_error msg | Ir.Verify.Invalid_ir msg ->
          Server.error ~code:"invalid-program" msg)
  | Some "burn" -> handle_burn ()
  | Some op -> Server.error ~code:"bad-op" ("unknown op " ^ op)
  | None -> Server.error ~code:"bad-op" "request has no \"op\" field"

let status_extra t () =
  let compiles, degraded, fallbacks, incidents_total =
    counted t (fun () -> (t.compiles, t.degraded, t.fallbacks, t.incidents_total))
  in
  let cache = Memo.stats t.cache in
  (match t.shard_name with
  | None -> []
  | Some n -> [ ("shard", Json.Str n) ])
  @ [
    ("compiles", Json.Int compiles);
    ("degraded", Json.Int degraded);
    ("fallbacks", Json.Int fallbacks);
    ("incidents_total", Json.Int incidents_total);
    ("breaker_trips", Json.Int (Breaker.trips t.breaker));
    ( "breakers",
      Json.List
        (List.map
           (fun (key, st, failures) ->
             Json.Obj
               [
                 ("scheme", Json.Str key);
                 ("state", Json.Str (Breaker.state_name st));
                 ("consecutive_failures", Json.Int failures);
               ])
           (Breaker.snapshot t.breaker)) );
    ( "cache",
      Json.Obj
        [
          ("hits", Json.Int cache.Memo.hits);
          ("misses", Json.Int cache.Memo.misses);
          ("entries", Json.Int cache.Memo.entries);
        ] );
  ]

let handler t : Server.handler =
  { Server.handle = handle t; status_extra = status_extra t; workers = Server.Domains }
