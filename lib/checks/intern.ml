(* A compile's interned checks: the proof engine's identity for every
   check it meets (see the interface). *)

module Ids = struct
  (* strictly increasing ids, and their hash *)
  type t = { ids : int array; hash : int }

  let make ids = { ids; hash = Array.fold_left (fun h i -> (h * 31) + i) 0 ids }
  let empty = make [||]
  let hash s = s.hash

  let equal a b =
    a == b
    || a.hash = b.hash
       &&
       let n = Array.length a.ids in
       n = Array.length b.ids
       &&
       let rec go i = i = n || (a.ids.(i) = b.ids.(i) && go (i + 1)) in
       go 0

  let mem x s =
    let rec go lo hi =
      lo < hi
      &&
      let mid = (lo + hi) / 2 in
      let y = s.ids.(mid) in
      y = x || if y < x then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length s.ids)

  let exists p s = Array.exists p s.ids
  let fold f s acc = Array.fold_left (fun acc i -> f i acc) acc s.ids
  let elements s = Array.to_list s.ids
  let of_list l = make (Array.of_list (List.sort_uniq Int.compare l))

  (* The first [k] ids of [out], or [a] itself when they are all of
     [a]'s: an unchanged set is shared, not copied. *)
  let result a out k = if k = Array.length a.ids then a else make (Array.sub out 0 k)

  let filter p s =
    let n = Array.length s.ids in
    let rec first i = if i < n && p s.ids.(i) then first (i + 1) else i in
    match first 0 with
    | i0 when i0 = n -> s
    | i0 ->
        let out = Array.make n 0 and k = ref i0 in
        Array.blit s.ids 0 out 0 i0;
        for i = i0 + 1 to n - 1 do
          let x = s.ids.(i) in
          if p x then begin
            out.(!k) <- x;
            incr k
          end
        done;
        result s out !k

  (* The union or the intersection of two sets, in one merge; a result
     equal to either operand is that operand. *)
  let merge ~union a b =
    let x = a.ids and y = b.ids in
    let nx = Array.length x and ny = Array.length y in
    let out = Array.make (if union then nx + ny else min nx ny) 0 in
    let k = ref 0 in
    let push v =
      out.(!k) <- v;
      incr k
    in
    let i = ref 0 and j = ref 0 in
    while !i < nx && !j < ny do
      let u = x.(!i) and v = y.(!j) in
      if u = v then begin
        push u;
        incr i;
        incr j
      end
      else if u < v then begin
        if union then push u;
        incr i
      end
      else begin
        if union then push v;
        incr j
      end
    done;
    if union then begin
      Array.blit x !i out !k (nx - !i);
      k := !k + nx - !i;
      Array.blit y !j out !k (ny - !j);
      k := !k + ny - !j
    end;
    if !k = ny then b else result a out !k

  let union a b = if Array.length a.ids = 0 then b else merge ~union:true a b
  let inter a b = if a == b then a else merge ~union:false a b
  let add x s = if mem x s then s else union s (make [| x |])
end

module Tbl = Hashtbl.Make (Check)

module Handles = Hashtbl.Make (Ids)

type cond = Check.t list * Check.t

module Conds = Hashtbl.Make (struct
  type t = cond

  let equal (g1, c1) (g2, c2) = Check.equal c1 c2 && List.equal Check.equal g1 g2
  let hash (gs, c) = List.fold_left (fun h g -> (h * 31) + Check.hash g) (Check.hash c) gs
end)

type t = {
  oracle : Oracle.Cache.t;
  ids : int Tbl.t;
  families : Check.Families.t;
  mutable checks : Check.t array;
  mutable family : int array; (* id -> family *)
  mutable keys : int list array; (* id -> its atom keys *)
  mutable masks : int array; (* id -> {!mask} of [keys] *)
  handles : Oracle.Hyps.t Handles.t;
  cond_ids : int Conds.t;
  mutable conds : cond array;
  mutable cmasks : int array;
  shifts : (int * int * int, int) Hashtbl.t;
}

let create () =
  {
    oracle = Oracle.Cache.create ();
    ids = Tbl.create 64;
    families = Check.Families.create ();
    checks = [||];
    family = [||];
    keys = [||];
    masks = [||];
    handles = Handles.create 64;
    cond_ids = Conds.create 8;
    conds = [||];
    cmasks = [||];
    shifts = Hashtbl.create 16;
  }

let oracle t = t.oracle

let grow a n fill =
  if n < Array.length a then a
  else
    let b = Array.make (max 16 (2 * n)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

(* A key set as one word, a bit per key modulo 62: two sets that share
   a key share a bit, so disjoint masks rule a shared key out. *)
let mask keys = List.fold_left (fun m k -> m lor (1 lsl (k mod 62))) 0 keys

let id t (c : Check.t) =
  match Tbl.find_opt t.ids c with
  | Some i -> i
  | None ->
      let i = Tbl.length t.ids in
      t.checks <- grow t.checks i c;
      t.family <- grow t.family i 0;
      t.keys <- grow t.keys i [];
      t.masks <- grow t.masks i 0;
      t.checks.(i) <- c;
      t.keys.(i) <- Check.atom_keys c;
      t.masks.(i) <- mask t.keys.(i);
      t.family.(i) <- Check.Families.id t.families c;
      Tbl.add t.ids c i;
      i

let size t = Tbl.length t.ids
let check t i = t.checks.(i)
let family t i = t.family.(i)
let keys t i = t.keys.(i)
let of_checks t cs = Ids.of_list (List.map (id t) cs)
let elements t s = List.sort Check.compare (List.map (check t) (Ids.elements s))
let mentions t keys =
  let m = mask keys in
  fun i ->
    t.masks.(i) land m <> 0
    &&
    let ks = t.keys.(i) in
    List.exists (fun k -> List.exists (Int.equal k) ks) keys

let kill t keys s =
  let dies = mentions t keys in
  Ids.filter (fun i -> not (dies i)) s

let shift t i ~key ~by =
  match Hashtbl.find_opt t.shifts (i, key, by) with
  | Some j -> j
  | None ->
      let c = t.checks.(i) in
      let j =
        match
          Linexpr.checked_add (Check.constant c)
            (Linexpr.checked_mul (Linexpr.coeff_of_key (Check.lhs c) key) by)
        with
        | k -> id t (Check.make (Check.lhs c) k)
        | exception Linexpr.Overflow -> -1
      in
      Hashtbl.add t.shifts (i, key, by) j;
      j

let implied t s i =
  let c = t.checks.(i) in
  Check.compile_time_value c = Some true
  ||
  let f = t.family.(i) and k = Check.constant c in
  Ids.exists (fun j -> t.family.(j) = f && Check.constant t.checks.(j) <= k) s

let handle t s =
  match Handles.find_opt t.handles s with
  | Some h -> h
  | None ->
      let h = Oracle.Hyps.make ~cache:t.oracle (elements t s) in
      Handles.add t.handles s h;
      h

let cond t guards c =
  let key = (List.sort Check.compare guards, c) in
  match Conds.find_opt t.cond_ids key with
  | Some i -> i
  | None ->
      let i = Conds.length t.cond_ids in
      t.conds <- grow t.conds i key;
      t.cmasks <- grow t.cmasks i 0;
      t.conds.(i) <- key;
      t.cmasks.(i) <- mask (List.concat_map Check.atom_keys (c :: guards));
      Conds.add t.cond_ids key i;
      i

let cond_mentions t keys =
  let m = mask keys in
  fun i ->
    t.cmasks.(i) land m <> 0
    &&
    let gs, c = t.conds.(i) in
    List.exists
      (fun k -> Check.mentions_key c k || List.exists (fun g -> Check.mentions_key g k) gs)
      keys

let conds t s =
  let compare (g1, c1) (g2, c2) =
    match List.compare Check.compare g1 g2 with 0 -> Check.compare c1 c2 | n -> n
  in
  List.sort compare (List.map (fun i -> t.conds.(i)) (Ids.elements s))

let kill_conds t keys s =
  let dies = cond_mentions t keys in
  Ids.filter (fun i -> not (dies i)) s
