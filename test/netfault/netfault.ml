(* Deterministic seeded network fault injection: pure byte mangling, a
   send-schedule planner, injectable faulty reader/writer for in-process
   tests, and a standalone chaos proxy. See netfault.mli for the
   fault-class -> detection -> recovery table this module exists to
   exercise. *)

module Frame = Nascent_support.Frame

type cls =
  | Torn_frame
  | Truncated_write
  | Delayed_bytes
  | Reset_mid_exchange
  | Garbage_frame
  | Oversized_frame
  | Stalled_reader

type spec = { cls : cls; seed : int }

let all_classes =
  [
    Torn_frame;
    Truncated_write;
    Delayed_bytes;
    Reset_mid_exchange;
    Garbage_frame;
    Oversized_frame;
    Stalled_reader;
  ]

let cls_name = function
  | Torn_frame -> "torn-frame"
  | Truncated_write -> "truncated-write"
  | Delayed_bytes -> "delayed-bytes"
  | Reset_mid_exchange -> "reset-mid-exchange"
  | Garbage_frame -> "garbage-frame"
  | Oversized_frame -> "oversized-frame"
  | Stalled_reader -> "stalled-reader"

let cls_of_name s = List.find_opt (fun c -> cls_name c = s) all_classes

let parse s =
  let name, seed =
    match String.index_opt s ':' with
    | None -> (s, Ok 0)
    | Some i ->
        let tail = String.sub s (i + 1) (String.length s - i - 1) in
        ( String.sub s 0 i,
          match int_of_string_opt tail with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Printf.sprintf "bad seed %S" tail) )
  in
  match (cls_of_name name, seed) with
  | _, Error e -> Error e
  | Some cls, Ok seed -> Ok { cls; seed }
  | None, _ ->
      Error
        (Printf.sprintf "unknown fault class %S (one of: %s)" name
           (String.concat ", " (List.map cls_name all_classes)))

let to_string spec = Printf.sprintf "%s:%d" (cls_name spec.cls) spec.seed

(* Every third connection is faulted — strictly periodic, so a client
   that retries on a fresh connection always reaches a clean one within
   two more attempts. The seed rotates which residue is hit. *)
let should_fault spec n = (n + spec.seed) mod 3 = 0

(* --- seeded PRNG (LCG over the 63-bit int range) -------------------- *)

let cls_index c =
  let rec go i = function
    | [] -> 0
    | x :: tl -> if x = c then i else go (i + 1) tl
  in
  go 0 all_classes

let rng_make spec =
  ref ((spec.seed * 0x9e3779b1) + (cls_index spec.cls * 0x85ebca6b) + 1)

let rng_next st =
  (* the 48-bit LCG from POSIX drand48: fits OCaml's 63-bit ints *)
  st := ((!st * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  !st lsr 17

(* --- byte mangling --------------------------------------------------- *)

let mangle spec s =
  let len = String.length s in
  let st = rng_make spec in
  match spec.cls with
  | Torn_frame when len > 0 ->
      (* flip one payload byte so the frame CRC fails; fall back to the
         header on a stream too short to carry a payload, where the
         magic/version check catches it instead *)
      let pos =
        if len > Frame.header_bytes then
          Frame.header_bytes + (rng_next st mod (len - Frame.header_bytes))
        else rng_next st mod len
      in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code s.[pos] lxor (1 + (rng_next st mod 255))));
      Bytes.unsafe_to_string b
  | Truncated_write when len > 1 -> String.sub s 0 (max 1 (len / 2))
  | Garbage_frame ->
      let junk =
        String.init 8 (fun _ ->
            let c = rng_next st land 0xff in
            (* never start with 'N': the garbage must fail the magic *)
            Char.chr (if Char.chr c = 'N' then c lxor 0xff else c))
      in
      junk ^ s
  | Oversized_frame ->
      (* a well-formed header declaring an absurd payload: the length
         cap must reject it before buffering anything *)
      let b = Bytes.of_string (Frame.encode ~id:1 "x") in
      Bytes.set b 12 '\x7f';
      Bytes.set b 13 '\xff';
      Bytes.set b 14 '\xff';
      Bytes.set b 15 '\xff';
      Bytes.unsafe_to_string b
  | _ -> s

(* --- send schedule --------------------------------------------------- *)

type step = Write of string | Delay_s of float | Close_now

let plan spec ~delay_s s =
  let m = mangle spec s in
  match spec.cls with
  | Truncated_write -> [ Write m; Close_now ]
  | Delayed_bytes ->
      let cut = max 1 (String.length m / 2) in
      if String.length m <= cut then [ Write m ]
      else
        [
          Write (String.sub m 0 cut);
          Delay_s delay_s;
          Write (String.sub m cut (String.length m - cut));
        ]
  | Reset_mid_exchange -> [ Write m; Close_now ]
  | Oversized_frame -> [ Write m; Close_now ]
  | _ -> [ Write m ]

(* --- injectable faulty reader / writer ------------------------------- *)

let reader spec ~data =
  let st = rng_make spec in
  let pos = ref 0 in
  let stop =
    match spec.cls with
    | Truncated_write | Reset_mid_exchange ->
        (* EOF mid-stream: two thirds in, clamped inside the data *)
        max 1 (String.length data * 2 / 3)
    | _ -> String.length data
  in
  fun buf off len ->
    if len > 0 && rng_next st mod 5 = 0 then
      raise (Unix.Unix_error (Unix.EINTR, "read", ""));
    let remaining = stop - !pos in
    if remaining <= 0 || len = 0 then 0
    else begin
      let n = min (min len remaining) (1 + (rng_next st mod 4)) in
      Bytes.blit_string data !pos buf off n;
      pos := !pos + n;
      n
    end

let writer spec ~out =
  let st = rng_make spec in
  fun buf off len ->
    if len > 0 && rng_next st mod 5 = 0 then
      raise (Unix.Unix_error (Unix.EINTR, "write", ""));
    let n = min len (1 + (rng_next st mod 4)) in
    Buffer.add_subbytes out buf off n;
    n

(* --- chaos proxy ------------------------------------------------------ *)

let sock_for = function
  | Unix.ADDR_UNIX _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Unix.ADDR_INET _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0

let shutdown_quiet fd cmd = try Unix.shutdown fd cmd with _ -> ()
let close_quiet fd = try Unix.close fd with _ -> ()

let write_all_quiet fd s =
  try
    Frame.write_all
      ~write:(fun b off len -> Unix.write fd b off len)
      s;
    true
  with _ -> false

(* Every connection opens with the NF1 hello, which a client writes in
   one write and the server answers before the request follows — so
   chunk 0 in each direction is the hello (or its ack) and chunk 1 is
   the first request (or response). The hello always passes clean:
   faulting the handshake would read as a protocol mismatch, not a
   network fault. *)

(* Pump upstream->client. On faulted connections, Reset_mid_exchange
   drops the response and cuts the wire (EOF before response at the
   client); Stalled_reader swallows it, stalls, then closes — the
   client's receive deadline is the detection. *)
let pump_response ~faulted spec ufd cfd =
  let buf = Bytes.create 8192 in
  let chunk_no = ref 0 in
  let rec loop () =
    match Unix.read ufd buf 0 (Bytes.length buf) with
    | exception _ -> ()
    | 0 -> shutdown_quiet cfd Unix.SHUTDOWN_SEND
    | n -> (
        let k = !chunk_no in
        incr chunk_no;
        let forward () =
          if write_all_quiet cfd (Bytes.sub_string buf 0 n) then loop ()
        in
        if (not faulted) || k = 0 then forward ()
        else
          match spec.cls with
          | Reset_mid_exchange -> shutdown_quiet cfd Unix.SHUTDOWN_ALL
          | Stalled_reader ->
              Thread.delay 1.0;
              shutdown_quiet cfd Unix.SHUTDOWN_ALL
          | _ -> forward ())
  in
  loop ()

(* Pump client->upstream; chunk 1 (the first request) of a faulted
   connection gets the fault class's send plan. *)
let pump_request ~faulted ~delay_s spec cfd ufd =
  let buf = Bytes.create 8192 in
  let chunk_no = ref 0 in
  let rec loop () =
    match Unix.read cfd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception _ -> ()
    | 0 -> shutdown_quiet ufd Unix.SHUTDOWN_SEND
    | n ->
        let k = !chunk_no in
        incr chunk_no;
        let chunk = Bytes.sub_string buf 0 n in
        if faulted && k = 1 then begin
          let closed =
            List.exists
              (function
                | Write s -> not (write_all_quiet ufd s)
                | Delay_s d ->
                    Thread.delay d;
                    false
                | Close_now ->
                    shutdown_quiet ufd Unix.SHUTDOWN_ALL;
                    shutdown_quiet cfd Unix.SHUTDOWN_ALL;
                    true)
              (plan spec ~delay_s chunk)
          in
          if not closed then loop ()
        end
        else if write_all_quiet ufd chunk then loop ()
  in
  loop ()

let handle_conn ~faulted ~delay_s spec upstream cfd =
  match
    let ufd = sock_for upstream in
    (try Unix.connect ufd upstream
     with e ->
       close_quiet ufd;
       raise e);
    ufd
  with
  | exception _ -> close_quiet cfd
  | ufd ->
      let resp =
        Thread.create (fun () -> pump_response ~faulted spec ufd cfd) ()
      in
      pump_request ~faulted ~delay_s spec cfd ufd;
      Thread.join resp;
      close_quiet ufd;
      close_quiet cfd

let proxy ~listen ~upstream ?(stop = fun () -> false) ?(delay_s = 3.0)
    ?(on_listen = fun (_ : Unix.sockaddr) -> ()) spec =
  (match listen with
  | Unix.ADDR_UNIX p when p <> "" -> ( try Unix.unlink p with _ -> ())
  | _ -> ());
  let lfd = sock_for listen in
  (match listen with
  | Unix.ADDR_INET _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true
  | _ -> ());
  Unix.bind lfd listen;
  Unix.listen lfd 64;
  on_listen (Unix.getsockname lfd);
  let idx = ref 0 in
  let rec loop () =
    if not (stop ()) then begin
      (match Unix.select [ lfd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept lfd with
          | exception _ -> ()
          | cfd, _ ->
              let n = !idx in
              incr idx;
              let faulted = should_fault spec n in
              ignore
                (Thread.create
                   (fun () ->
                     handle_conn ~faulted ~delay_s spec upstream cfd)
                   ())));
      loop ()
    end
  in
  loop ();
  close_quiet lfd;
  match listen with
  | Unix.ADDR_UNIX p when p <> "" -> ( try Unix.unlink p with _ -> ())
  | _ -> ()
