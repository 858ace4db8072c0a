(* The NF1 framed wire protocol, exercised as pure code: encode/decode
   roundtrips under every fragmentation, the full decode-error taxonomy
   (magic, version, length cap, CRC, id), decoder poisoning, and the
   blocking helpers driven through hostile partial-I/O schedules by
   Netfault's injectable reader/writer — a short read, a 1-byte drip,
   or an EINTR mid-frame must never surface a misparsed frame. *)

module Frame = Nascent_support.Frame
module Netfault = Nascent_netfault.Netfault
module Json = Nascent_support.Json

let frame_error =
  Alcotest.testable Frame.pp_error (fun a b -> a = b)

let next_exn d =
  match Frame.next d with
  | Ok (Some f) -> f
  | Ok None -> Alcotest.fail "expected a complete frame, got Ok None"
  | Error e -> Alcotest.failf "expected a frame, got %a" Frame.pp_error e

let check_no_frame d =
  match Frame.next d with
  | Ok None -> ()
  | Ok (Some f) -> Alcotest.failf "unexpected frame id=%d" f.Frame.id
  | Error e -> Alcotest.failf "unexpected decode error %a" Frame.pp_error e

(* --- roundtrips -------------------------------------------------------- *)

let test_roundtrip_single () =
  let payload = {|{"op":"status","id":7}|} in
  let d = Frame.decoder () in
  let s = Frame.encode ~id:42 payload in
  Frame.feed d s ~off:0 ~len:(String.length s);
  let f = next_exn d in
  Alcotest.(check int) "id" 42 f.Frame.id;
  Alcotest.(check string) "payload" payload f.Frame.payload;
  check_no_frame d;
  Alcotest.(check bool) "not mid-frame" false (Frame.mid_frame d)

let test_roundtrip_multi () =
  let d = Frame.decoder () in
  let frames = List.init 5 (fun i -> (i * 3, Printf.sprintf "payload-%d" i)) in
  let stream =
    String.concat "" (List.map (fun (id, p) -> Frame.encode ~id p) frames)
  in
  Frame.feed d stream ~off:0 ~len:(String.length stream);
  List.iter
    (fun (id, p) ->
      let f = next_exn d in
      Alcotest.(check int) "id" id f.Frame.id;
      Alcotest.(check string) "payload" p f.Frame.payload)
    frames;
  check_no_frame d

let test_roundtrip_byte_at_a_time () =
  let d = Frame.decoder () in
  let payload = String.init 257 (fun i -> Char.chr (i mod 256)) in
  let s = Frame.encode ~id:9000 payload in
  let got = ref None in
  String.iteri
    (fun i c ->
      Frame.feed d (String.make 1 c) ~off:0 ~len:1;
      match Frame.next d with
      | Ok None ->
          (* every prefix short of the whole frame is mid-frame *)
          if i < String.length s - 1 then
            Alcotest.(check bool) "mid-frame while partial" true
              (Frame.mid_frame d)
      | Ok (Some f) -> got := Some f
      | Error e -> Alcotest.failf "decode error at byte %d: %a" i Frame.pp_error e)
    s;
  match !got with
  | None -> Alcotest.fail "frame never completed"
  | Some f ->
      Alcotest.(check int) "id" 9000 f.Frame.id;
      Alcotest.(check string) "payload" payload f.Frame.payload;
      Alcotest.(check bool) "drained" false (Frame.mid_frame d)

let test_empty_payload () =
  let d = Frame.decoder () in
  let s = Frame.encode ~id:0 "" in
  Alcotest.(check int) "frame is bare header" Frame.header_bytes
    (String.length s);
  Frame.feed d s ~off:0 ~len:(String.length s);
  let f = next_exn d in
  Alcotest.(check int) "id" 0 f.Frame.id;
  Alcotest.(check string) "payload" "" f.Frame.payload

(* --- error taxonomy ---------------------------------------------------- *)

let feed_all d s = Frame.feed d s ~off:0 ~len:(String.length s)

let expect_error d expected =
  match Frame.next d with
  | Error e -> Alcotest.check frame_error "decode error" expected e
  | Ok (Some f) -> Alcotest.failf "expected error, decoded id=%d" f.Frame.id
  | Ok None -> Alcotest.fail "expected error, got Ok None"

let test_bad_magic () =
  let d = Frame.decoder () in
  feed_all d ("XYZ" ^ String.make 40 '\x00');
  expect_error d Frame.Bad_magic

let test_bad_version () =
  let s = Frame.encode ~id:1 "x" in
  let b = Bytes.of_string s in
  Bytes.set b 3 '\x63' (* version 99 *);
  let d = Frame.decoder () in
  feed_all d (Bytes.to_string b);
  expect_error d (Frame.Bad_version 99)

let test_crc_mismatch () =
  let s = Frame.encode ~id:5 "hello frame" in
  let b = Bytes.of_string s in
  let pos = Frame.header_bytes + 2 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  let d = Frame.decoder () in
  feed_all d (Bytes.to_string b);
  expect_error d Frame.Crc_mismatch

let test_oversized () =
  (* forge a header declaring a payload past the cap; the decoder must
     reject on the header alone, before any payload arrives *)
  let s = Frame.encode ~id:1 "x" in
  let b = Bytes.of_string s in
  Bytes.set b 12 '\x7f';
  Bytes.set b 13 '\xff';
  Bytes.set b 14 '\xff';
  Bytes.set b 15 '\xff';
  let d = Frame.decoder () in
  (* header only — no payload bytes follow *)
  feed_all d (Bytes.sub_string b 0 Frame.header_bytes);
  expect_error d (Frame.Oversized 0x7fffffff)

let test_small_cap () =
  let d = Frame.decoder ~max_payload:8 () in
  feed_all d (Frame.encode ~id:1 "123456789");
  expect_error d (Frame.Oversized 9)

let test_bad_id () =
  let s = Frame.encode ~id:1 "x" in
  let b = Bytes.of_string s in
  Bytes.set b 4 '\xff' (* 8-byte id with the top bit set *);
  let d = Frame.decoder () in
  feed_all d (Bytes.to_string b);
  expect_error d Frame.Bad_id

let test_negative_id_encode () =
  match Frame.encode ~id:(-1) "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode accepted a negative id"

let test_poisoned_decoder () =
  let d = Frame.decoder () in
  feed_all d "garbage not a frame at all";
  expect_error d Frame.Bad_magic;
  (* feeding a perfectly valid frame afterwards must not revive it:
     framing has no resync point *)
  feed_all d (Frame.encode ~id:1 "ok");
  expect_error d Frame.Bad_magic;
  expect_error d Frame.Bad_magic

(* --- blocking helpers under hostile I/O schedules ---------------------- *)

let all_seeds = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* read_frame through Netfault.reader: seeded 1–4-byte reads plus EINTR
   at seeded points. For stream-preserving classes every frame must
   come back intact; for truncating classes (Truncated_write,
   Reset_mid_exchange: EOF mid-stream) the outcome must be a clean
   prefix of frames then Ok None — never an error, never a frame that
   was not sent. *)
let test_read_frame_faulty () =
  let payloads =
    [ {|{"op":"status"}|}; String.make 100 'a'; ""; "final" ]
  in
  let data =
    String.concat ""
      (List.mapi (fun i p -> Frame.encode ~id:(i + 1) p) payloads)
  in
  List.iter
    (fun cls ->
      List.iter
        (fun seed ->
          let spec = { Netfault.cls; seed } in
          let read = Netfault.reader spec ~data in
          let d = Frame.decoder () in
          let truncating =
            match cls with
            | Netfault.Truncated_write | Netfault.Reset_mid_exchange -> true
            | _ -> false
          in
          let rec drain acc =
            match Frame.read_frame ~read d with
            | Ok (Some f) -> drain (f :: acc)
            | Ok None -> List.rev acc
            | Error e ->
                Alcotest.failf "%s seed %d: decode error %a"
                  (Netfault.to_string spec) seed Frame.pp_error e
          in
          let got = drain [] in
          (* every decoded frame is one that was actually sent, in order *)
          List.iteri
            (fun i f ->
              Alcotest.(check int)
                (Printf.sprintf "%s seed %d: frame %d id"
                   (Netfault.to_string spec) seed i)
                (i + 1) f.Frame.id;
              Alcotest.(check string)
                "payload intact" (List.nth payloads i) f.Frame.payload)
            got;
          if truncating then begin
            (* EOF landed somewhere inside the stream: fewer frames, and
               if it fell mid-frame the decoder says so *)
            if List.length got = List.length payloads then
              Alcotest.failf "%s seed %d: truncated stream decoded fully"
                (Netfault.to_string spec) seed
          end
          else begin
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d: all frames arrive"
                 (Netfault.to_string spec) seed)
              (List.length payloads) (List.length got);
            Alcotest.(check bool) "clean end" false (Frame.mid_frame d)
          end)
        all_seeds)
    [ Netfault.Delayed_bytes; Netfault.Stalled_reader;
      Netfault.Truncated_write; Netfault.Reset_mid_exchange ]

(* write_all through Netfault.writer: short writes and EINTR must never
   lose or reorder a byte. *)
let test_write_all_faulty () =
  let s = Frame.encode ~id:77 (String.init 300 (fun i -> Char.chr (i mod 256))) in
  List.iter
    (fun seed ->
      let spec = { Netfault.cls = Netfault.Delayed_bytes; seed } in
      let out = Buffer.create 64 in
      Frame.write_all ~write:(Netfault.writer spec ~out) s;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: bytes preserved" seed)
        s (Buffer.contents out))
    all_seeds

(* the mangler must actually break what it claims to break *)
let test_mangle_torn_fails_crc () =
  List.iter
    (fun seed ->
      let spec = { Netfault.cls = Netfault.Torn_frame; seed } in
      let s = Frame.encode ~id:3 "a payload long enough to tear" in
      let m = Netfault.mangle spec s in
      Alcotest.(check int) "same length" (String.length s) (String.length m);
      let d = Frame.decoder () in
      feed_all d m;
      match Frame.next d with
      | Error Frame.Crc_mismatch -> ()
      | Error e ->
          Alcotest.failf "seed %d: expected Crc_mismatch, got %a" seed
            Frame.pp_error e
      | Ok _ -> Alcotest.failf "seed %d: torn frame decoded" seed)
    all_seeds

(* --- wire bytes ---------------------------------------------------------- *)

(* The payload CRC is IEEE 802.3 CRC32, computed here one bit at a
   time so that it shares nothing with the codec's tables. *)
let reference_crc32 s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xffffffff

(* Bytes 16-19 of a frame: its CRC, big-endian. *)
let crc_field s =
  (Char.code s.[16] lsl 24) lor (Char.code s.[17] lsl 16) lor (Char.code s.[18] lsl 8)
  lor Char.code s.[19]

let test_crc_check_value () =
  let s = Frame.encode ~id:0 "123456789" in
  Alcotest.(check int) "CRC32 check value" 0xCBF43926 (crc_field s);
  Alcotest.(check string) "header bytes 16-19" "\xcb\xf4\x39\x26" (String.sub s 16 4)

(* Lengths 0-64 cover every tail a loop over 4- or 8-byte words can
   leave; the payload bytes sweep the whole byte range. *)
let test_crc_every_length () =
  for len = 0 to 64 do
    let payload = String.init len (fun i -> Char.chr ((i * 167 + len * 31 + 7) land 0xff)) in
    let s = Frame.encode ~id:len payload in
    Alcotest.(check int) (Printf.sprintf "CRC of %d bytes" len) (reference_crc32 payload)
      (crc_field s);
    let d = Frame.decoder () in
    feed_all d s;
    Alcotest.(check string) (Printf.sprintf "%d bytes decode" len) payload
      (next_exn d).Frame.payload
  done

let test_crc_every_bit_flip () =
  let payload = String.init 64 (fun i -> Char.chr ((i * 89 + 3) land 0xff)) in
  let s = Frame.encode ~id:11 payload in
  for bit = 0 to (64 * 8) - 1 do
    let b = Bytes.of_string s in
    let pos = Frame.header_bytes + (bit / 8) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
    let d = Frame.decoder () in
    feed_all d (Bytes.to_string b);
    match Frame.next d with
    | Error Frame.Crc_mismatch -> ()
    | Error e -> Alcotest.failf "bit %d: expected Crc_mismatch, got %a" bit Frame.pp_error e
    | Ok _ -> Alcotest.failf "bit %d: flipped payload decoded" bit
  done

(* The largest frame a default decoder accepts survives the trip. *)
let test_max_payload_roundtrip () =
  let payload =
    String.init Frame.default_max_payload (fun i -> Char.chr ((i lxor (i lsr 9)) land 0xff))
  in
  let s = Frame.encode ~id:77 payload in
  Alcotest.(check int) "CRC" (reference_crc32 payload) (crc_field s);
  let d = Frame.decoder () in
  feed_all d s;
  let f = next_exn d in
  Alcotest.(check int) "id" 77 f.Frame.id;
  Alcotest.(check bool) "payload" true (String.equal payload f.Frame.payload)

(* --- payload views --------------------------------------------------------

   A daemon takes each frame as a view of its connection's decoder
   buffer and parses the payload there, so a view must carry exactly
   the id and payload [next] returns, after the same checks. *)

let view_payload (v : Frame.view) = String.sub v.Frame.src v.Frame.off v.Frame.len

let take_view d =
  match Frame.next_view d with
  | Ok (Some v) -> v
  | Ok None -> Alcotest.fail "expected a complete frame, got Ok None"
  | Error e -> Alcotest.failf "expected a frame, got %a" Frame.pp_error e

(* Pump [read] into [d] and take every frame as a view, copying its
   payload before the next feed, as far as EOF or a decode error. *)
let read_views ~read d =
  let buf = Bytes.create 64 in
  let rec go acc =
    match Frame.next_view d with
    | Error e -> (List.rev acc, Some e)
    | Ok (Some v) -> go ((v.Frame.view_id, view_payload v) :: acc)
    | Ok None -> (
        match read buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc
        | 0 -> (List.rev acc, None)
        | n ->
            Frame.feed_bytes d buf ~off:0 ~len:n;
            go acc)
  in
  go []

(* The same stream through [read_frame], as the clients read it. *)
let read_frames ~read d =
  let rec go acc =
    match Frame.read_frame ~read d with
    | Ok (Some f) -> go ((f.Frame.id, f.Frame.payload) :: acc)
    | Ok None -> (List.rev acc, None)
    | Error e -> (List.rev acc, Some e)
  in
  go []

let id_payloads = Alcotest.(pair (list (pair int string)) (option frame_error))

let test_view_faulty () =
  let payloads = [ {|{"op":"status"}|}; String.make 300 'a'; ""; "final"; String.make 70 '"' ] in
  let data = String.concat "" (List.mapi (fun i p -> Frame.encode ~id:(i + 1) p) payloads) in
  List.iter
    (fun cls ->
      List.iter
        (fun seed ->
          let spec = { Netfault.cls; seed } in
          let what = Printf.sprintf "%s seed %d" (Netfault.to_string spec) seed in
          let dv = Frame.decoder () and df = Frame.decoder () in
          let views = read_views ~read:(Netfault.reader spec ~data) dv in
          let frames = read_frames ~read:(Netfault.reader spec ~data) df in
          Alcotest.check id_payloads (what ^ ": views") frames views;
          Alcotest.(check bool) (what ^ ": mid-frame") (Frame.mid_frame df) (Frame.mid_frame dv))
        all_seeds)
    [ Netfault.Delayed_bytes; Netfault.Stalled_reader;
      Netfault.Truncated_write; Netfault.Reset_mid_exchange ]

(* A flipped payload bit fails the view's CRC check, and the decoder
   stays poisoned. *)
let test_view_crc_and_poison () =
  let payload = String.init 64 (fun i -> Char.chr ((i * 89 + 3) land 0xff)) in
  let s = Frame.encode ~id:11 payload in
  for bit = 0 to (64 * 8) - 1 do
    let b = Bytes.of_string s in
    let pos = Frame.header_bytes + (bit / 8) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
    let d = Frame.decoder () in
    feed_all d (Bytes.to_string b ^ s);
    let poisoned () =
      match Frame.next_view d with
      | Error Frame.Crc_mismatch -> ()
      | Error e -> Alcotest.failf "bit %d: expected Crc_mismatch, got %a" bit Frame.pp_error e
      | Ok _ -> Alcotest.failf "bit %d: flipped payload decoded" bit
    in
    poisoned ();
    (* the intact copy behind it, and one fed later, stay unread *)
    poisoned ();
    feed_all d s;
    poisoned ()
  done

(* A payload of [n] bytes: a JSON object, padded out with a string. *)
let json_payload tag n =
  let head = Printf.sprintf {|{"tag":%S,"pad":"|} tag in
  head ^ String.make (n - String.length head - 2) 'x' ^ {|"}|}

let parse_view v =
  match Json.parse_sub v.Frame.src ~off:v.Frame.off ~len:v.Frame.len with
  | Ok j -> j
  | Error e -> Alcotest.failf "view of frame %d: %s" v.Frame.view_id e

(* A tree parsed from a view shares no bytes with the decoder's buffer:
   A is parsed while half of B sits behind it, then the rest of B and a
   large C arrive, and the decoder slides B to the front of its buffer
   over A's bytes. *)
let test_view_aliasing () =
  let d = Frame.decoder () in
  (* a buffer of 4,096 bytes, empty again *)
  feed_all d (Frame.encode ~id:1 (json_payload "warm" 4076));
  ignore (take_view d);
  let pa = json_payload "A" 980 and pb = json_payload "B" 980 and pc = json_payload "C" 2480 in
  let fa = Frame.encode ~id:10 pa and fb = Frame.encode ~id:11 pb in
  let half = String.length fb / 2 in
  feed_all d (fa ^ String.sub fb 0 half);
  let va = take_view d in
  Alcotest.(check int) "A's id" 10 va.Frame.view_id;
  let ta = parse_view va in
  feed_all d (String.sub fb half (String.length fb - half));
  feed_all d (Frame.encode ~id:12 pc);
  Alcotest.(check bool) "B slid over A's bytes" false (String.equal pa (view_payload va));
  feed_all d (Frame.encode ~id:13 pa);
  let expect what payload j =
    Alcotest.(check string) what payload (Json.to_string j)
  in
  expect "A's tree after the slide" pa ta;
  let vb = take_view d in
  Alcotest.(check int) "B's id" 11 vb.Frame.view_id;
  expect "B" pb (parse_view vb);
  expect "C" pc (parse_view (take_view d));
  expect "A again" pa (parse_view (take_view d));
  expect "A's tree at the end" pa ta

(* --- hello handshake --------------------------------------------------- *)

let test_hello_roundtrip () =
  match Frame.check_hello (Frame.hello ()) with
  | Ok v -> Alcotest.(check int) "version" Frame.version v
  | Error e -> Alcotest.failf "own hello rejected: %s" e

let test_hello_rejects () =
  let bad j =
    match Frame.check_hello j with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "accepted bad hello as version %d" v
  in
  bad Json.Null;
  bad (Json.Obj [ ("hello", Json.Str "nf1") ]);
  bad (Json.Obj [ ("hello", Json.Str "nf1"); ("version", Json.Int 99) ]);
  bad (Json.Obj [ ("hello", Json.Str "nf2"); ("version", Json.Int 1) ])

(* --- netfault spec plumbing ------------------------------------------- *)

let test_spec_parse () =
  List.iter
    (fun cls ->
      let name = Netfault.cls_name cls in
      (match Netfault.parse name with
      | Ok s ->
          Alcotest.(check bool) "cls" true (s.Netfault.cls = cls);
          Alcotest.(check int) "default seed" 0 s.Netfault.seed
      | Error e -> Alcotest.failf "parse %s: %s" name e);
      match Netfault.parse (name ^ ":7") with
      | Ok s -> Alcotest.(check int) "seed" 7 s.Netfault.seed
      | Error e -> Alcotest.failf "parse %s:7: %s" name e)
    Netfault.all_classes;
  (match Netfault.parse "no-such-class" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown class");
  match Netfault.parse "torn-frame:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted negative seed"

let test_should_fault_periodic () =
  List.iter
    (fun seed ->
      let spec = { Netfault.cls = Netfault.Torn_frame; seed } in
      let faulted =
        List.filter (Netfault.should_fault spec) (List.init 30 Fun.id)
      in
      Alcotest.(check int) "one in three" 10 (List.length faulted);
      (* strictly periodic: a retrying client reaches a clean
         connection within two more attempts *)
      List.iter
        (fun n ->
          Alcotest.(check bool) "period 3" true
            (Netfault.should_fault spec (n + 3) = Netfault.should_fault spec n))
        (List.init 27 Fun.id))
    [ 0; 1; 2; 5 ]

let suite =
  [
    Alcotest.test_case "roundtrip single frame" `Quick test_roundtrip_single;
    Alcotest.test_case "roundtrip multiple frames" `Quick test_roundtrip_multi;
    Alcotest.test_case "roundtrip byte-at-a-time" `Quick
      test_roundtrip_byte_at_a_time;
    Alcotest.test_case "empty payload" `Quick test_empty_payload;
    Alcotest.test_case "bad magic" `Quick test_bad_magic;
    Alcotest.test_case "bad version" `Quick test_bad_version;
    Alcotest.test_case "crc mismatch" `Quick test_crc_mismatch;
    Alcotest.test_case "oversized header rejected early" `Quick test_oversized;
    Alcotest.test_case "custom payload cap" `Quick test_small_cap;
    Alcotest.test_case "bad id" `Quick test_bad_id;
    Alcotest.test_case "negative id refused" `Quick test_negative_id_encode;
    Alcotest.test_case "decoder poisons on error" `Quick test_poisoned_decoder;
    Alcotest.test_case "read_frame under faulty reader" `Quick
      test_read_frame_faulty;
    Alcotest.test_case "write_all under faulty writer" `Quick
      test_write_all_faulty;
    Alcotest.test_case "CRC32 check value in the header" `Quick test_crc_check_value;
    Alcotest.test_case "CRC32 of every length 0-64" `Quick test_crc_every_length;
    Alcotest.test_case "every payload bit flip fails CRC" `Quick test_crc_every_bit_flip;
    Alcotest.test_case "max payload roundtrip" `Quick test_max_payload_roundtrip;
    Alcotest.test_case "torn mangle fails CRC" `Quick
      test_mangle_torn_fails_crc;
    Alcotest.test_case "view under faulty reader" `Quick test_view_faulty;
    Alcotest.test_case "view CRC check and poisoning" `Quick test_view_crc_and_poison;
    Alcotest.test_case "view parsed tree outlives the buffer" `Quick test_view_aliasing;
    Alcotest.test_case "hello roundtrip" `Quick test_hello_roundtrip;
    Alcotest.test_case "hello rejects mismatches" `Quick test_hello_rejects;
    Alcotest.test_case "fault spec parse" `Quick test_spec_parse;
    Alcotest.test_case "should_fault is periodic" `Quick
      test_should_fault_periodic;
  ]
