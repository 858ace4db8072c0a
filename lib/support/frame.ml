(* NF1 framed wire protocol: 20-byte header (magic, version, id, payload
   length, payload CRC32) + payload. See frame.mli for the layout and
   the fault-detection contract. *)

let version = 1
let header_bytes = 20
let default_max_payload = 4 * 1024 * 1024
let magic = "NF1"

(* --- CRC32 (IEEE 802.3), slicing-by-8, pure OCaml ------------------ *)

(* Eight 256-entry tables, one after another: table 0 is the classic
   byte-at-a-time table, and entry [n] of table [k] is the CRC of byte
   [n] followed by [k] zero bytes, so eight bytes fold in with eight
   lookups (Kounavis & Berry, "A Systematic Approach to Building High
   Performance Software-Based CRC Generators", ISCC 2005). *)
let build_crc_tables () =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to (8 * 256) - 1 do
    let prev = t.(n - 256) in
    t.(n) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

(* Built on the first CRC, so a process that frames nothing never pays
   for them. Domains that race to the first CRC each build the same
   tables, and the atomic publishes them whole. *)
let crc_tables = Atomic.make [||]

let crc32_sub s off len =
  let t =
    match Atomic.get crc_tables with
    | [||] ->
        let t = build_crc_tables () in
        Atomic.set crc_tables t;
        t
    | t -> t
  in
  let c = ref 0xffffffff in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let a = Int32.to_int (String.get_int32_le s !i) lxor !c in
    let b = Int32.to_int (String.get_int32_le s (!i + 4)) in
    c :=
      Array.unsafe_get t (0x700 lor (a land 0xff))
      lxor Array.unsafe_get t (0x600 lor ((a lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 lor ((a lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 lor ((a lsr 24) land 0xff))
      lxor Array.unsafe_get t (0x300 lor (b land 0xff))
      lxor Array.unsafe_get t (0x200 lor ((b lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 lor ((b lsr 16) land 0xff))
      lxor Array.unsafe_get t ((b lsr 24) land 0xff);
    i := !i + 8
  done;
  for i = !i to stop - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

(* --- encode --------------------------------------------------------- *)

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

(* Fill in the header of a frame whose payload already sits at
   [header_bytes] in [b]. *)
let seal ~id b =
  if id < 0 then invalid_arg "Frame.encode: negative id";
  let len = Bytes.length b - header_bytes in
  Bytes.blit_string magic 0 b 0 3;
  Bytes.set b 3 (Char.chr version);
  (* id: 8 bytes big-endian; OCaml ints are 63-bit so the top byte of a
     non-negative id never exceeds 0x3f. *)
  for i = 0 to 7 do
    Bytes.set b (4 + i) (Char.chr ((id lsr (8 * (7 - i))) land 0xff))
  done;
  put_u32 b 12 len;
  put_u32 b 16 (crc32_sub (Bytes.unsafe_to_string b) header_bytes len);
  Bytes.unsafe_to_string b

let encode ~id payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string payload 0 b header_bytes len;
  seal ~id b

let encode_json ~id j =
  let b = Bytes.create (header_bytes + Json.length j) in
  Json.blit j b header_bytes;
  seal ~id b

(* --- decode --------------------------------------------------------- *)

type frame = { id : int; payload : string }
type view = { view_id : int; src : string; off : int; len : int }

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

(* The unconsumed bytes are [buf.[start .. stop - 1]]. A frame is read
   where it lies, header and payload, and consuming it only moves
   [start]; its bytes stay put until a feed needs the room. The bytes
   left over slide to the front only when a feed would not fit behind
   them. *)
type decoder = {
  max_payload : int;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable poisoned : error option;
}

let decoder ?(max_payload = default_max_payload) () =
  { max_payload; buf = Bytes.create 256; start = 0; stop = 0; poisoned = None }

(* Room for [len] more bytes after [stop]. *)
let reserve d len =
  if d.stop + len > Bytes.length d.buf then begin
    let have = d.stop - d.start in
    let buf =
      if have + len <= Bytes.length d.buf then d.buf
      else Bytes.create (max (have + len) (2 * Bytes.length d.buf))
    in
    Bytes.blit d.buf d.start buf 0 have;
    d.buf <- buf;
    d.start <- 0;
    d.stop <- have
  end

let feed_bytes d b ~off ~len =
  if Option.is_none d.poisoned then begin
    reserve d len;
    Bytes.blit b off d.buf d.stop len;
    d.stop <- d.stop + len
  end

let feed d s ~off ~len = feed_bytes d (Bytes.unsafe_of_string s) ~off ~len

let mid_frame d = Option.is_none d.poisoned && d.stop > d.start

(* Byte [i] of the unconsumed input, and the big-endian u32 there. *)
let byte d i = Bytes.get d.buf (d.start + i)

let u32_at d i =
  (Char.code (byte d i) lsl 24)
  lor (Char.code (byte d (i + 1)) lsl 16)
  lor (Char.code (byte d (i + 2)) lsl 8)
  lor Char.code (byte d (i + 3))

let poison d e =
  d.poisoned <- Some e;
  d.start <- 0;
  d.stop <- 0;
  Error e

(* Validate as much of the header as is buffered, so a garbage prefix or
   a forged oversized length is rejected as soon as those bytes arrive —
   before any payload is read, let alone allocated. *)
let next_view d =
  match d.poisoned with
  | Some e -> Error e
  | None ->
      let have = d.stop - d.start in
      let chk = min have 3 in
      let rec magic_ok i = i >= chk || (byte d i = magic.[i] && magic_ok (i + 1)) in
      if not (magic_ok 0) then poison d Bad_magic
      else if have >= 4 && byte d 3 <> Char.chr version then
        poison d (Bad_version (Char.code (byte d 3)))
      else if have < header_bytes then Ok None
      else
        let len = u32_at d 12 in
        if len > d.max_payload then poison d (Oversized len)
        else if Char.code (byte d 4) land 0xc0 <> 0 then poison d Bad_id
        else if have < header_bytes + len then Ok None
        else begin
          let id = ref 0 in
          for i = 0 to 7 do
            id := (!id lsl 8) lor Char.code (byte d (4 + i))
          done;
          let crc = u32_at d 16 in
          let src = Bytes.unsafe_to_string d.buf and off = d.start + header_bytes in
          d.start <- off + len;
          if d.start = d.stop then begin
            d.start <- 0;
            d.stop <- 0
          end;
          if crc32_sub src off len <> crc then poison d Crc_mismatch
          else Ok (Some { view_id = !id; src; off; len })
        end

let next d =
  Result.map
    (Option.map (fun v -> { id = v.view_id; payload = String.sub v.src v.off v.len }))
    (next_view d)

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
