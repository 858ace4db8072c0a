(* Content-addressed result cache: a mutex-protected in-memory table
   keyed by input digests. Timing inside the harness stays on Mclock;
   the memo itself never reads a clock — cached cells replay their
   recorded values bit-for-bit, which is what makes warm parallel
   reruns byte-identical to the serial run.

   The table is bounded: two generations of [generation] entries each.
   New entries go to the young one; when it is full it becomes the old
   one and the previous old generation is dropped. A hit in the old
   generation moves the entry back to the young one, so whatever a
   long-lived daemon keeps being asked for stays, and a stream of
   unique sources costs at most 2 * [generation] entries. *)

type counters = { hits : int; misses : int; entries : int }

let generation = 16_384

type 'v t = {
  mutable young : (string, 'v) Hashtbl.t; (* both guarded by [lock] *)
  mutable old : (string, 'v) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

(* The digest of the parts' digests: each part (a whole source, say) is
   hashed where it lies instead of being copied into one concatenation,
   and fixed-width digests keep the list boundaries unambiguous. *)
let key parts =
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.string parts)))

let create () =
  {
    young = Hashtbl.create 64;
    old = Hashtbl.create 1;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
  }

(* Under [lock]. *)
let insert t key v =
  if (not (Hashtbl.mem t.young key)) && Hashtbl.length t.young >= generation then begin
    t.old <- t.young;
    t.young <- Hashtbl.create 64
  end;
  Hashtbl.replace t.young key v

let find_or_compute t ~key f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.young key with
  | Some v ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      v
  | None -> (
      match Hashtbl.find_opt t.old key with
      | Some v ->
          t.hits <- t.hits + 1;
          Hashtbl.remove t.old key;
          insert t key v;
          Mutex.unlock t.lock;
          v
      | None ->
          Mutex.unlock t.lock;
          let v = f () in
          Mutex.lock t.lock;
          t.misses <- t.misses + 1;
          (* a concurrent computation of the same key may have landed
             in either generation meanwhile; keep one copy *)
          Hashtbl.remove t.old key;
          insert t key v;
          Mutex.unlock t.lock;
          v)

let stats t =
  Mutex.lock t.lock;
  let c =
    {
      hits = t.hits;
      misses = t.misses;
      entries = Hashtbl.length t.young + Hashtbl.length t.old;
    }
  in
  Mutex.unlock t.lock;
  c

