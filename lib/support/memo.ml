(* Content-addressed result cache: a mutex-protected in-memory table
   keyed by input digests. Timing inside the harness stays on Mclock;
   the memo itself never reads a clock — cached cells replay their
   recorded values bit-for-bit, which is what makes warm parallel
   reruns byte-identical to the serial run. *)

type counters = { hits : int; misses : int }

type 'v t = {
  table : (string, 'v) Hashtbl.t; (* guarded by [lock] *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

(* The digest of the parts' digests: each part (a whole source, say) is
   hashed where it lies instead of being copied into one concatenation,
   and fixed-width digests keep the list boundaries unambiguous. *)
let key parts =
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.string parts)))

let create () = { table = Hashtbl.create 64; lock = Mutex.create (); hits = 0; misses = 0 }

let find_or_compute t ~key f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some v ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      v
  | None ->
      Mutex.unlock t.lock;
      let v = f () in
      Mutex.lock t.lock;
      t.misses <- t.misses + 1;
      Hashtbl.replace t.table key v;
      Mutex.unlock t.lock;
      v

let stats t =
  Mutex.lock t.lock;
  let c = { hits = t.hits; misses = t.misses } in
  Mutex.unlock t.lock;
  c

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0;
  Mutex.unlock t.lock
