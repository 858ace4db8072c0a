(* A minimal NF1 client over loopback TCP, built from Frame and Json
   alone so the ledger keeps working whatever happens to the daemon's
   own client code. One connection carries many requests in flight,
   tagged by frame id. In traced runs each send and receive records its
   codec spans. *)

module Json = Nascent_support.Json
module Frame = Nascent_support.Frame

type t = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  mutable next_id : int;
  wlock : Mutex.t;
}

exception Protocol of string

let write t s =
  Frame.write_all ~write:(fun b off len -> Unix.write t.fd b off len) s

let read_payload t =
  match Frame.read_frame ~read:(fun b off len -> Unix.read t.fd b off len) t.dec with
  | Ok (Some f) -> (f.Frame.id, f.Frame.payload)
  | Ok None -> raise (Protocol "connection closed")
  | Error e -> raise (Protocol (Frame.error_name e))

let connect ?(recv_timeout_s = 30.0) port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout_s;
    let t = { fd; dec = Frame.decoder (); next_id = 1; wlock = Mutex.create () } in
    write t (Frame.encode ~id:0 (Json.to_string (Frame.hello ())));
    let _, payload = read_payload t in
    match Json.parse payload with
    | Ok j -> (
        match Frame.check_hello j with
        | Ok _ -> t
        | Error e -> raise (Protocol ("hello: " ^ e)))
    | Error e -> raise (Protocol ("hello: " ^ e))
  with
  | t -> t
  | exception e ->
      Unix.close fd;
      raise e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Send one request without waiting; returns its frame id. Safe to call
   from a sender thread while another thread receives. *)
let send t (req : Json.t) =
  Mutex.lock t.wlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.wlock) @@ fun () ->
  let id = t.next_id in
  t.next_id <- id + 1;
  let s0 = Spans.now_ns () in
  let body = Json.to_string req in
  let s1 = Spans.now_ns () in
  let frame = Frame.encode ~id body in
  let s2 = Spans.now_ns () in
  write t frame;
  if !Spans.enabled then begin
    Spans.complete ~cat:"support.json" ~name:"json.print" ~start:s0 ~dur:(Int64.sub s1 s0) ();
    Spans.complete ~cat:"support.frame" ~name:"frame.encode" ~start:s1 ~dur:(Int64.sub s2 s1) ()
  end;
  id

(* The next response in completion order: its frame id and payload. *)
let recv t =
  let s0 = Spans.now_ns () in
  let id, payload = read_payload t in
  let s1 = Spans.now_ns () in
  let j =
    match Json.parse payload with
    | Ok j -> j
    | Error e -> raise (Protocol ("response is not JSON: " ^ e))
  in
  if !Spans.enabled then begin
    Spans.complete ~cat:"support.frame" ~name:"frame.read" ~start:s0 ~dur:(Int64.sub s1 s0) ();
    Spans.complete ~cat:"support.json" ~name:"json.parse" ~start:s1
      ~dur:(Int64.sub (Spans.now_ns ()) s1) ()
  end;
  (id, payload, j)

let request t req =
  let id = send t req in
  let rid, _, j = recv t in
  if rid <> id then raise (Protocol "response to an unexpected frame id");
  j
