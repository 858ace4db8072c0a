(* A compile's check table: the implication relations between the checks
   of one function compile, on the compile's interned ids (see the
   interface, which also describes the three modes). Syntactic
   implication never crosses a family; cross-family implication comes
   only from the oracle. *)

type mode = No_implications | Cross_family_only | All_implications

let mode_name = function
  | No_implications -> "no-impl"
  | Cross_family_only -> "cross-family-only"
  | All_implications -> "all-impl"

(* Does performing [a] make [b] redundant by the family rule [mode]
   allows: a weaker check of its own family under the default, itself
   otherwise? *)
let family_implies mode a b =
  match mode with
  | All_implications -> Check.implies_within_family a b
  | No_implications | Cross_family_only -> Check.equal a b

module Bitset = Nascent_support.Bitset

(* Rows are indexed by the pool's ids. Every set ranges over the
   table's capacity, which doubles when the ids outgrow it, so a sync
   that adds a few checks widens nothing; the rows of ids without their
   own yet are [none]. *)
type t = {
  pool : Intern.t;
  mode : mode;
  oracle : bool;
  mutable size : int; (* ids with rows *)
  mutable avail_gen : Bitset.t array; (* checks made available by performing check i *)
  mutable covered_by : Bitset.t array; (* the transpose of [avail_gen] *)
  mutable ant_gen : Bitset.t array;
      (* checks made anticipatable by performing check i (same-family only,
         per the paper's stronger anticipatability conditions) *)
  kills : (int, Bitset.t) Hashtbl.t; (* atom key -> checks killed *)
  mutable none : Bitset.t; (* the empty set, for keys that kill nothing *)
}

let create ~mode ~oracle pool =
  {
    pool;
    mode;
    oracle;
    size = 0;
    avail_gen = [||];
    covered_by = [||];
    ant_gen = [||];
    kills = Hashtbl.create 64;
    none = Bitset.create 0;
  }

let size t = Array.length t.avail_gen
let mode t = t.mode
let oracle t = t.oracle
let pool t = t.pool

(* Does the oracle prove that check [i] implies check [j] of another
   family? Only the modes with cross-family implication ask, and only
   of a pair over the same atoms: a variable occurring in just one of
   the two constraints is unbounded in the direction the refutation
   would need, so a single-hypothesis implication cannot hold. *)
let oracle_proves t i j =
  t.oracle && t.mode <> No_implications && i <> j
  && Intern.family t.pool i <> Intern.family t.pool j
  && List.equal Int.equal (Intern.keys t.pool i) (Intern.keys t.pool j)
  && Oracle.implies ~cache:(Intern.oracle t.pool)
       ~hyps:[ Intern.check t.pool i ]
       (Intern.check t.pool j)

(* Every set widened to capacity [cap]. *)
let widen t cap =
  let widen s =
    let s' = Bitset.create cap in
    Bitset.iter (Bitset.add s') s;
    s'
  in
  let none = Bitset.create cap in
  let rows old = Array.init cap (fun i -> if i < t.size then widen old.(i) else none) in
  t.avail_gen <- rows t.avail_gen;
  t.covered_by <- rows t.covered_by;
  t.ant_gen <- rows t.ant_gen;
  Hashtbl.filter_map_inplace (fun _ s -> Some (widen s)) t.kills;
  t.none <- none

(* Rows for the ids [size .. n - 1], every pair with a new member
   decided, [i]-major. Bits are only ever added, and each is a decided
   pair, so a grow cut off by a budget leaves correct rows behind, and
   the next sync, which starts from the same [size], completes them. *)
let grow t n =
  if n > size t then widen t (max 16 (2 * n));
  let cap = size t and n0 = t.size in
  for i = n0 to n - 1 do
    t.avail_gen.(i) <- Bitset.create cap;
    t.covered_by.(i) <- Bitset.create cap;
    t.ant_gen.(i) <- Bitset.create cap
  done;
  for i = 0 to n - 1 do
    let ci = Intern.check t.pool i in
    for j = (if i < n0 then n0 else 0) to n - 1 do
      let syntactic = family_implies t.mode ci (Intern.check t.pool j) in
      if syntactic || oracle_proves t i j then begin
        Bitset.add t.avail_gen.(i) j;
        Bitset.add t.covered_by.(j) i
      end;
      if syntactic then Bitset.add t.ant_gen.(i) j
    done
  done;
  for i = n0 to n - 1 do
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.kills key with
        | Some s -> Bitset.add s i
        | None -> Hashtbl.replace t.kills key (Bitset.of_list cap [ i ]))
      (Intern.keys t.pool i)
  done;
  t.size <- n

let sync t checks =
  let ids = List.map (Intern.id t.pool) checks in
  let n = Intern.size t.pool in
  if n > t.size then grow t n;
  Bitset.of_list (size t) ids

let avail_gen t i = t.avail_gen.(i)
let covered_by t j = t.covered_by.(j)
let ant_gen t i = t.ant_gen.(i)

let killed_by_key t k =
  match Hashtbl.find_opt t.kills k with
  | Some s -> s
  | None -> t.none
