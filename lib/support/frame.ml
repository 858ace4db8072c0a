(* NF1 framed wire protocol: 20-byte header (magic, version, id, payload
   length, payload CRC32) + payload. See frame.mli for the layout and
   the fault-detection contract. *)

let version = 1
let header_bytes = 20
let default_max_payload = 4 * 1024 * 1024
let magic = "NF1"

(* --- CRC32 (IEEE 802.3), table-driven, pure OCaml ------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub s off len =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let crc32 s = crc32_sub s 0 (String.length s)

(* --- encode --------------------------------------------------------- *)

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let encode ~id payload =
  if id < 0 then invalid_arg "Frame.encode: negative id";
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string magic 0 b 0 3;
  Bytes.set b 3 (Char.chr version);
  (* id: 8 bytes big-endian; OCaml ints are 63-bit so the top byte of a
     non-negative id never exceeds 0x3f. *)
  for i = 0 to 7 do
    Bytes.set b (4 + i) (Char.chr ((id lsr (8 * (7 - i))) land 0xff))
  done;
  put_u32 b 12 len;
  put_u32 b 16 (crc32 payload);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* --- decode --------------------------------------------------------- *)

type frame = { id : int; payload : string }

type error = Bad_magic | Bad_version of int | Oversized of int | Crc_mismatch | Bad_id

let error_name = function
  | Bad_magic -> "bad-magic"
  | Bad_version _ -> "bad-version"
  | Oversized _ -> "oversized"
  | Crc_mismatch -> "crc-mismatch"
  | Bad_id -> "bad-id"

let pp_error ppf = function
  | Bad_magic -> Format.fprintf ppf "bad magic (not an NF1 stream)"
  | Bad_version v -> Format.fprintf ppf "unsupported protocol version %d" v
  | Oversized n -> Format.fprintf ppf "declared payload of %d bytes exceeds the cap" n
  | Crc_mismatch -> Format.fprintf ppf "payload CRC mismatch"
  | Bad_id -> Format.fprintf ppf "request id does not fit"

type decoder = {
  max_payload : int;
  buf : Buffer.t;  (* bytes not yet consumed into a frame *)
  mutable poisoned : error option;
}

let decoder ?(max_payload = default_max_payload) () =
  { max_payload; buf = Buffer.create 256; poisoned = None }

let feed d s ~off ~len =
  if d.poisoned = None then Buffer.add_substring d.buf s off len

let feed_bytes d b ~off ~len =
  if d.poisoned = None then Buffer.add_subbytes d.buf b off len

let buffered d = Buffer.length d.buf
let mid_frame d = d.poisoned = None && Buffer.length d.buf > 0

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let poison d e =
  d.poisoned <- Some e;
  Buffer.clear d.buf;
  Error e

(* Validate as much of the header as is buffered, so a garbage prefix or
   a forged oversized length is rejected as soon as those bytes arrive —
   before any payload is read, let alone allocated. *)
let next d =
  match d.poisoned with
  | Some e -> Error e
  | None -> (
      let have = Buffer.length d.buf in
      let chk = min have 3 in
      let rec magic_ok i =
        i >= chk || (Buffer.nth d.buf i = magic.[i] && magic_ok (i + 1))
      in
      if not (magic_ok 0) then poison d Bad_magic
      else if have >= 4 && Buffer.nth d.buf 3 <> Char.chr version then
        poison d (Bad_version (Char.code (Buffer.nth d.buf 3)))
      else if have < header_bytes then Ok None
      else
        let hdr = Buffer.sub d.buf 0 header_bytes in
        let len = get_u32 hdr 12 in
        if len > d.max_payload then poison d (Oversized len)
        else if Char.code hdr.[4] land 0xc0 <> 0 then poison d Bad_id
        else if have < header_bytes + len then Ok None
        else
          let id = ref 0 in
          for i = 0 to 7 do
            id := (!id lsl 8) lor Char.code hdr.[4 + i]
          done;
          let payload = Buffer.sub d.buf header_bytes len in
          let rest = Buffer.sub d.buf (header_bytes + len) (have - header_bytes - len) in
          Buffer.clear d.buf;
          Buffer.add_string d.buf rest;
          if crc32 payload <> get_u32 hdr 16 then poison d Crc_mismatch
          else Ok (Some { id = !id; payload }))

(* --- blocking helpers with injectable I/O --------------------------- *)

let read_frame ?(buf = Bytes.create 8192) ~read d =
  let rec go () =
    match next d with
    | Error _ as e -> e
    | Ok (Some _) as f -> f
    | Ok None -> (
        match read buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | 0 -> Ok None (* EOF; caller checks mid_frame for truncation *)
        | n ->
            feed_bytes d buf ~off:0 ~len:n;
            go ())
  in
  go ()

let write_all ~write s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match write b off (len - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | n when n <= 0 -> raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
      | n -> go (off + n)
  in
  go 0

(* --- hello handshake ------------------------------------------------ *)

let hello () = Json.Obj [ ("hello", Json.Str "nf1"); ("version", Json.Int version) ]

let check_hello j =
  match (Json.str_member "hello" j, Json.int_member "version" j) with
  | Some "nf1", Some v when v = version -> Ok v
  | Some "nf1", Some v -> Error (Printf.sprintf "unsupported protocol version %d" v)
  | Some "nf1", None -> Error "hello carries no version"
  | _ -> Error "first frame is not an NF1 hello"
