(* A frozen universe of canonical checks with precomputed implication
   relations, the set domain of the optimizer's data-flow analyses.

   The three implication modes correspond to the paper's Table 3
   ablations:
   - [All_implications]  — full use of the CIG (the default);
   - [No_implications]   — a check implies only itself (the primed NI'
                           and SE' variants);
   - [Cross_family_only] — within-family implication disabled, edges
                           between different families kept (the LLS'
                           variant, which preserves the implications
                           from preheader conditional checks to the
                           loop-body checks they cover). *)

type mode = No_implications | Cross_family_only | All_implications

let mode_name = function
  | No_implications -> "no-impl"
  | Cross_family_only -> "cross-family-only"
  | All_implications -> "all-impl"

module Index = Hashtbl.Make (Check)

type t = {
  cig : Cig.t;
  index : int Index.t;
  checks : Check.t array;
  families : int array; (* check index -> family id *)
  mode : mode;
  avail_gen : Nascent_support.Bitset.t array;
      (* checks made available by performing check i *)
  ant_gen : Nascent_support.Bitset.t array;
      (* checks made anticipatable by performing check i (same-family only,
         per the paper's stronger anticipatability conditions) *)
  kills : (int, Nascent_support.Bitset.t) Hashtbl.t; (* atom key -> checks killed *)
  none : Nascent_support.Bitset.t; (* the empty set, for keys that kill nothing *)
}

module Bitset = Nascent_support.Bitset

let size t = Array.length t.checks

let mode t = t.mode

let check t i = t.checks.(i)

let index_of t c = Index.find_opt t.index c

let index_of_exn t c =
  match index_of t c with
  | Some i -> i
  | None -> invalid_arg "Universe.index_of_exn: unregistered check"

let family t i = t.families.(i)

(* Same atom vocabulary (as key sets)? A single-hypothesis implication
   [ci => cj] can only hold when every atom is shared: a variable
   occurring in just one of the two constraints is unbounded in the
   direction the refutation would need. Cheap pre-filter that keeps the
   O(n^2) oracle sweep of [build] from querying hopeless pairs. *)
let same_atom_keys a b = List.equal Int.equal (Check.atom_keys a) (Check.atom_keys b)

let oracle_proves oracle (arr : Check.t array) i j same_fam =
  match oracle with
  | None -> false
  | Some cache ->
      i <> j && (not same_fam)
      && same_atom_keys arr.(i) arr.(j)
      && Oracle.implies ~cache ~hyps:[ arr.(i) ] arr.(j)

(* Build a frozen universe from the distinct checks of [checks].
   Implication queries go through [cig], which the caller has already
   populated with cross-family edges (e.g. from loop-limit
   substitution). Given an [oracle] cache, availability-generation is
   additionally widened by the decision procedure ({!Oracle}): pairs
   the CIG cannot relate syntactically (different families, e.g.
   [2*i <= 10 => i <= 5]) gain an implication when the oracle proves
   it. Only [avail_gen] is widened — [ant_gen] keeps the paper's
   same-family restriction (section 3.2), because insertion safety
   depends on it, not on implication strength. The cache is the
   compile's own: every pass rebuilds the universe, and the pairs
   repeat. *)
let build ~cig ~mode ?oracle (checks : Check.t list) : t =
  let index = Index.create 64 in
  let distinct =
    List.filter
      (fun c ->
        if Index.mem index c then false
        else begin
          Index.replace index c (Index.length index);
          true
        end)
      checks
  in
  let arr = Array.of_list distinct in
  let n = Array.length arr in
  let families = Array.map (Cig.family_of_check cig) arr in
  let avail_gen = Array.init n (fun _ -> Bitset.create n) in
  let ant_gen = Array.init n (fun _ -> Bitset.create n) in
  (* n^2 pairs: nothing below allocates per pair *)
  for i = 0 to n - 1 do
    let fi = families.(i) and ci = Check.constant arr.(i) in
    for j = 0 to n - 1 do
      let fj = families.(j) and cj = Check.constant arr.(j) in
      let same_fam = fi = fj in
      let strong =
        match Cig.path_weight cig fi fj with Some w -> ci + w <= cj | None -> false
      in
      let avail_implies =
        match mode with
        | No_implications -> i = j
        | Cross_family_only ->
            i = j || ((not same_fam) && (strong || oracle_proves oracle arr i j same_fam))
        | All_implications -> strong || oracle_proves oracle arr i j same_fam
      in
      if avail_implies then Bitset.add avail_gen.(i) j;
      let ant_implies =
        match mode with
        | No_implications | Cross_family_only -> i = j
        | All_implications -> same_fam && ci <= cj
      in
      if ant_implies then Bitset.add ant_gen.(i) j
    done
  done;
  let kills = Hashtbl.create 64 in
  Array.iteri
    (fun i c ->
      List.iter
        (fun key ->
          let set =
            match Hashtbl.find_opt kills key with
            | Some s -> s
            | None ->
                let s = Bitset.create n in
                Hashtbl.replace kills key s;
                s
          in
          Bitset.add set i)
        (Check.atom_keys c))
    arr;
  { cig; index; checks = arr; families; mode; avail_gen; ant_gen; kills; none = Bitset.create n }

(* Set of checks made available by performing check [i]. *)
let avail_gen t i = t.avail_gen.(i)

(* Set of checks made anticipatable by performing check [i]. *)
let ant_gen t i = t.ant_gen.(i)

(* Set of checks whose range expression mentions the atom with key [k]
   (i.e. killed by a definition of that atom). Shared with the
   universe, as the gen sets are: read it, never write it. *)
let killed_by_key t k =
  match Hashtbl.find_opt t.kills k with
  | Some s -> s
  | None -> t.none

let pp ppf t =
  Array.iteri (fun i c -> Fmt.pf ppf "%d: %a@." i Check.pp c) t.checks
