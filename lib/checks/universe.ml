(* A frozen universe of canonical checks with precomputed implication
   relations, the set domain of the optimizer's data-flow analyses.

   The three implication modes correspond to the paper's Table 3
   ablations:
   - [All_implications]  — a check implies the weaker checks of its
                           family (the default);
   - [No_implications]   — a check implies only itself (the primed NI'
                           and SE' variants);
   - [Cross_family_only] — within-family implication disabled, only
                           implications between different families
                           kept (the LLS' variant).

   Syntactic implication never crosses a family: the paper's
   cross-family edges (preheader conditional checks implying the body
   checks they cover) are realized by the preheader pass deleting the
   covered check when it hoists. Cross-family implication between two
   checks comes only from the oracle. *)

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

module Index = Hashtbl.Make (Check)
module Bitset = Nascent_support.Bitset

type t = {
  index : int Index.t;
  checks : Check.t array;
  families : int array; (* check index -> family id *)
  mode : mode;
  avail_gen : Bitset.t array; (* checks made available by performing check i *)
  ant_gen : Bitset.t array;
      (* checks made anticipatable by performing check i (same-family only,
         per the paper's stronger anticipatability conditions) *)
  kills : (int, Bitset.t) Hashtbl.t; (* atom key -> checks killed *)
  none : Bitset.t; (* the empty set, for keys that kill nothing *)
}

let size t = Array.length t.checks

let mode t = t.mode

let check t i = t.checks.(i)

let index_of t c = Index.find_opt t.index c

let family t i = t.families.(i)

(* Same atom vocabulary (as key sets)? A single-hypothesis implication
   [ci => cj] can only hold when every atom is shared: a variable
   occurring in just one of the two constraints is unbounded in the
   direction the refutation would need. Cheap pre-filter that keeps the
   O(n^2) oracle sweep of [build] from querying hopeless pairs. *)
let same_atom_keys a b = List.equal Int.equal (Check.atom_keys a) (Check.atom_keys b)

(* Does the oracle prove that check [i] implies check [j] of another
   family? Only the modes with cross-family implication ask. *)
let oracle_proves mode oracle (arr : Check.t array) (families : int array) i j =
  match oracle with
  | None -> false
  | Some cache ->
      mode <> No_implications && i <> j
      && families.(i) <> families.(j)
      && same_atom_keys arr.(i) arr.(j)
      && Oracle.implies ~cache ~hyps:[ arr.(i) ] arr.(j)

(* Build a frozen universe from the distinct checks of [checks]. Given
   an [oracle] cache, availability-generation is widened by the
   decision procedure ({!Oracle}): pairs of different families (e.g.
   [2*i <= 10 => i <= 5]) gain an implication when the oracle proves
   it. Only [avail_gen] is widened — [ant_gen] keeps the paper's
   same-family restriction (section 3.2), because insertion safety
   depends on it, not on implication strength. The cache is the
   compile's own: every pass rebuilds the universe, and the pairs
   repeat. *)
let build ~mode ?oracle (checks : Check.t list) : t =
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
  let families = Array.map (Check.Families.id (Check.Families.create ())) arr in
  let avail_gen = Array.init n (fun _ -> Bitset.create n) in
  let ant_gen = Array.init n (fun _ -> Bitset.create n) in
  (* n^2 pairs: nothing below allocates per pair *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let syntactic = family_implies mode arr.(i) arr.(j) in
      if syntactic || oracle_proves mode oracle arr families i j then
        Bitset.add avail_gen.(i) j;
      if syntactic then Bitset.add ant_gen.(i) j
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
  { index; checks = arr; families; mode; avail_gen; ant_gen; kills; none = Bitset.create n }

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
