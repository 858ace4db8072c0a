(* Content-addressed result cache: a mutex-protected in-memory table
   keyed by input digests, with an optional Marshal-based on-disk
   store. Timing inside the harness stays on Mclock; the memo itself
   never reads a clock — cached cells replay their recorded values
   bit-for-bit, which is what makes warm parallel reruns byte-identical
   to the serial run. *)

type counters = {
  hits : int;
  disk_hits : int;
  misses : int;
  quarantined : int;
}

type 'v t = {
  name : string;
  table : (string, 'v) Hashtbl.t; (* guarded by [lock] *)
  lock : Mutex.t;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable quarantined : int;
  disk_dir : string option;
  quarantine_max : int; (* cap on retained quarantine entries *)
}

let key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let default_disk_dir = Filename.concat "_build" ".nascent-cache"

let disk_dir_from_env () =
  match Sys.getenv_opt "NASCENT_CACHE_DIR" with
  | Some d when String.trim d <> "" -> Some d
  | _ -> (
      match Sys.getenv_opt "NASCENT_CACHE" with
      | Some ("1" | "true" | "on") -> Some default_disk_dir
      | _ -> None)

let env_disk_dir = disk_dir_from_env

let default_quarantine_max = 64

let quarantine_max_from_env () =
  match Sys.getenv_opt "NASCENT_QUARANTINE_MAX" with
  | None -> default_quarantine_max
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> default_quarantine_max)

let create ?disk_dir ?quarantine_max ~name () =
  let disk_dir =
    match disk_dir with Some d -> Some d | None -> disk_dir_from_env ()
  in
  let quarantine_max =
    match quarantine_max with
    | Some n -> max 0 n
    | None -> quarantine_max_from_env ()
  in
  {
    name;
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    hits = 0;
    disk_hits = 0;
    misses = 0;
    quarantined = 0;
    disk_dir;
    quarantine_max;
  }

(* --- disk store ------------------------------------------------------- *)

(* Entry layout, v2:

     NASCENT-MEMO.v2\n
     <32 hex chars: MD5 of the payload>\n
     <payload: Marshal.to_string of the value>

   The magic string guards against reading foreign files; the embedded
   payload digest guards against truncated or bit-flipped entries —
   Marshal.from_string on torn input can raise (or worse, succeed with
   garbage), so the digest is verified BEFORE unmarshalling. Marshal is
   still not type-safe across incompatible readers, which is why
   callers version their keys. Any entry that fails validation is moved
   aside to [<dir>/quarantine/] — preserved for post-mortems, never
   read again — and the lookup degrades to a miss. *)
let file_magic = "NASCENT-MEMO.v2\n"

let digest_hex_len = 32

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> () (* lost a race: fine *)
  end

let entry_path t k dir = Filename.concat (Filename.concat dir t.name) k

let quarantine_dir dir = Filename.concat dir "quarantine"

(* The quarantine is a post-mortem buffer, not an archive: a flaky disk
   (or a hostile writer) could otherwise corrupt entries forever and
   grow it without bound. Keep the newest [quarantine_max] entries by
   mtime (name as tie-break) and evict the rest, best-effort. *)
let prune_quarantine qd ~max_entries =
  match Sys.readdir qd with
  | exception Sys_error _ -> ()
  | entries ->
      if Array.length entries > max_entries then begin
        let dated =
          Array.to_list entries
          |> List.filter_map (fun e ->
                 let p = Filename.concat qd e in
                 match Unix.stat p with
                 | st -> Some (st.Unix.st_mtime, e)
                 | exception Unix.Unix_error _ -> None)
          |> List.sort compare
        in
        let excess = List.length dated - max_entries in
        List.iteri
          (fun i (_, e) ->
            if i < excess then
              try Sys.remove (Filename.concat qd e) with Sys_error _ -> ())
          dated
      end

(* Move a failed entry aside (best effort — a removal-racing reader or
   a read-only tree just leaves it), cap the quarantine, and count it. *)
let quarantine t ~path ~key dir reason =
  let qd = quarantine_dir dir in
  (try
     mkdir_p qd;
     Sys.rename path (Filename.concat qd (t.name ^ "." ^ key))
   with Sys_error _ -> ());
  prune_quarantine qd ~max_entries:t.quarantine_max;
  Mutex.lock t.lock;
  t.quarantined <- t.quarantined + 1;
  Mutex.unlock t.lock;
  Logs.warn (fun m ->
      m "memo %s: quarantined corrupt cache entry %s (%s)" t.name key reason)

(* Parse and validate one entry file; [Error reason] covers every
   corruption mode: foreign/old magic, truncation anywhere, payload
   digest mismatch. *)
let read_entry path =
  match
    In_channel.with_open_bin path (fun ic ->
        let m = really_input_string ic (String.length file_magic) in
        let dh = really_input_string ic (digest_hex_len + 1) in
        let payload = In_channel.input_all ic in
        (m, dh, payload))
  with
  | exception End_of_file -> Error "truncated header"
  | m, _, _ when m <> file_magic -> Error "bad magic"
  | _, dh, _ when dh.[digest_hex_len] <> '\n' -> Error "malformed digest line"
  | _, dh, payload ->
      let dh = String.sub dh 0 digest_hex_len in
      if Digest.to_hex (Digest.string payload) <> dh then
        Error "payload digest mismatch"
      else
        (* The digest matched, so this is byte-for-byte what a writer
           marshalled; from_string can still raise on reader/writer
           value-shape skew, which key versioning is meant to prevent —
           treat it as corruption all the same. *)
        (try Ok (Marshal.from_string payload 0)
         with Failure _ -> Error "unmarshal failed")

let disk_read t k =
  match t.disk_dir with
  | None -> None
  | Some dir -> (
      let path = entry_path t k dir in
      match read_entry path with
      | Ok v -> Some v
      | Error reason ->
          quarantine t ~path ~key:k dir reason;
          None
      | exception Sys_error _ -> None (* absent entry: a plain miss *))

let disk_write t k v =
  match t.disk_dir with
  | None -> ()
  | Some dir -> (
      try
        let d = Filename.concat dir t.name in
        mkdir_p d;
        let payload = Marshal.to_string v [] in
        (* temp + rename: concurrent writers of the same key never
           expose a torn entry *)
        Guard.write_atomic ~path:(entry_path t k dir)
          (String.concat ""
             [ file_magic; Digest.to_hex (Digest.string payload); "\n"; payload ])
      with Sys_error _ -> () (* a read-only tree disables persistence *))

let clear_disk t =
  match t.disk_dir with
  | None -> ()
  | Some dir -> (
      let d = Filename.concat dir t.name in
      match Sys.readdir d with
      | entries ->
          Array.iter
            (fun e -> try Sys.remove (Filename.concat d e) with Sys_error _ -> ())
            entries
      | exception Sys_error _ -> ())

(* --- lookup ----------------------------------------------------------- *)

let find_or_compute t ~key f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some v ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      v
  | None -> (
      Mutex.unlock t.lock;
      match disk_read t key with
      | Some v ->
          Mutex.lock t.lock;
          t.hits <- t.hits + 1;
          t.disk_hits <- t.disk_hits + 1;
          Hashtbl.replace t.table key v;
          Mutex.unlock t.lock;
          v
      | None ->
          let v = f () in
          Mutex.lock t.lock;
          t.misses <- t.misses + 1;
          Hashtbl.replace t.table key v;
          Mutex.unlock t.lock;
          disk_write t key v;
          v)

let stats t =
  Mutex.lock t.lock;
  let c =
    {
      hits = t.hits;
      disk_hits = t.disk_hits;
      misses = t.misses;
      quarantined = t.quarantined;
    }
  in
  Mutex.unlock t.lock;
  c

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.disk_hits <- 0;
  t.misses <- 0;
  t.quarantined <- 0;
  Mutex.unlock t.lock
