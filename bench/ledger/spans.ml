(* Span recorder for traced runs, written as Chrome trace-event JSON
   (Perfetto and chrome://tracing open it). Spans are recorded only from
   the ledger's own code, around its calls into each layer; timestamps
   are CLOCK_MONOTONIC, so the spans of the worker processes of one run
   line up on a single timeline. The buffer is bounded: past [cap]
   events further spans are counted, not kept. *)

module Json = Nascent_support.Json
module Mclock = Nascent_support.Mclock

type event = {
  name : string;
  cat : string;
  ph : string; (* "X" complete, "b"/"e" async begin/end *)
  ts : int64; (* ns *)
  dur : int64; (* ns, complete events *)
  tid : int;
  id : int; (* async events *)
  args : (string * Json.t) list;
}

let cap = 400_000
let enabled = ref false
let lock = Mutex.create ()
let events = ref []
let kept = ref 0
let dropped = ref 0
let now_ns () = Mclock.counter ()

let push ev =
  Mutex.lock lock;
  if !kept < cap then begin
    events := ev :: !events;
    incr kept
  end
  else incr dropped;
  Mutex.unlock lock

(* A complete span of known start and duration (nanoseconds). *)
let complete ?(args = []) ~cat ~name ~start ~dur () =
  if !enabled then
    push { name; cat; ph = "X"; ts = start; dur; tid = Thread.id (Thread.self ()); id = 0; args }

(* An asynchronous span: requests that overlap on one connection. *)
let async ?(args = []) ~cat ~name ~id ~start ~dur () =
  if !enabled then begin
    let tid = Thread.id (Thread.self ()) in
    push { name; cat; ph = "b"; ts = start; dur = 0L; tid; id; args };
    push { name; cat; ph = "e"; ts = Int64.add start dur; dur = 0L; tid; id; args = [] }
  end

let with_span ?args ~cat name f =
  if not !enabled then f ()
  else
    let start = now_ns () in
    Fun.protect
      ~finally:(fun () -> complete ?args ~cat ~name ~start ~dur:(Int64.sub (now_ns ()) start) ())
      f

let without f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let us ns = Json.Float (Int64.to_float ns /. 1000.0)

let to_json pid e =
  Json.Obj
    ([
       ("name", Json.Str e.name);
       ("cat", Json.Str e.cat);
       ("ph", Json.Str e.ph);
       ("ts", us e.ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int e.tid);
     ]
    @ (if e.ph = "X" then [ ("dur", us e.dur) ] else [ ("id", Json.Int e.id) ])
    @ if e.args = [] then [] else [ ("args", Json.Obj e.args) ])

(* One event per line, oldest first: the worker's part of the trace. *)
let write_part path =
  let pid = Unix.getpid () in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun e ->
          output_string oc (Json.to_string (to_json pid e));
          output_char oc '\n')
        (List.rev !events);
      if !dropped > 0 then
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("name", Json.Str "spans dropped");
                  ("ph", Json.Str "i");
                  ("s", Json.Str "g");
                  ("ts", Json.Int 0);
                  ("pid", Json.Int pid);
                  ("tid", Json.Int 0);
                  ("args", Json.Obj [ ("dropped", Json.Int !dropped) ]);
                ])
          ^ "\n"))

(* Join worker parts into one trace file. *)
let merge ~parts ~out =
  Out_channel.with_open_bin out (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      let first = ref true in
      List.iter
        (fun part ->
          if Sys.file_exists part then
            In_channel.with_open_bin part (fun ic ->
                Seq.iter
                  (fun line ->
                    if line <> "" then begin
                      if not !first then output_string oc ",\n";
                      first := false;
                      output_string oc line
                    end)
                  (Seq.of_dispenser (fun () -> In_channel.input_line ic))))
        parts;
      output_string oc "\n]}\n")
