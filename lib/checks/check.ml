(* Canonical range checks: [Check (range-expression <= range-constant)]
   (paper section 2.2).

   Construction normalizes:
   - all constants folded into the range constant;
   - lower-bound checks [lo <= e] negated into [-e <= -lo].

   The normalization makes semantically equivalent checks fall in the
   same family: the paper's Figure 1 checks [2*N <= 10] and
   [2*N-1 <= 10] become family [2*N] with constants 10 and 11, and the
   implication between them is a constant comparison.

   A stronger normalization also divides the coefficients by their gcd
   [g] and floors the constant, exact over the integers:
   [g*e <= k <=> e <= floor(k/g)] — it would merge [2*N <= 10] and
   [2*N <= 11] into one check [N <= 5] outright. The paper's canonical
   form does not do this (the Figure 1 example relies on the two checks
   staying distinct), so [make] leaves coefficients alone and the gcd
   variant is exposed separately as [make_gcd] (measured as an ablation
   in the benchmark harness).

   [make] is the only constructor, and it caches what the proof engine
   asks of a check again and again: the hash of its family and of
   itself. Tables keyed by checks then hash in O(1), and two checks of
   different families rarely need their terms compared. *)

type t = { lhs : Linexpr.t; k : int; fhash : int; hash : int }

(* floor division for possibly-negative dividends *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

(* [make lhs k] is the canonical form of [lhs <= k]. *)
let make lhs k : t =
  let fhash = Linexpr.hash lhs in
  { lhs; k; fhash; hash = (fhash * 31) + k }

(* gcd-normalizing constructor, see above. *)
let make_gcd lhs k : t =
  let g = Linexpr.coeff_gcd lhs in
  if g > 1 then
    make (Linexpr.of_terms (List.map (fun (a, c) -> (a, c / g)) (Linexpr.terms lhs))) (fdiv k g)
  else make lhs k

(* Re-normalize an existing check with the gcd rule. *)
let gcd_normalize t = make_gcd t.lhs t.k

(* [upper ~sub ~bound] is the canonical upper-bound check [sub <= bound]
   where both sides are (linexpr, constant) pairs. *)
let upper ~sub:(se, sc) ~bound:(be, bc) = make (Linexpr.sub se be) (bc - sc)

(* [lower ~sub ~bound] is the canonical lower-bound check [bound <= sub],
   i.e. [-sub <= -bound]. *)
let lower ~sub:(se, sc) ~bound:(be, bc) = make (Linexpr.sub be se) (sc - bc)

let lhs t = t.lhs
let constant t = t.k

(* Within a family, smaller constant = stronger check:
   [e <= 5] implies [e <= 7]. *)
let same_family a b = a.fhash = b.fhash && (a.lhs == b.lhs || Linexpr.equal a.lhs b.lhs)

let implies_within_family a b = a.k <= b.k && same_family a b

let equal a b = a == b || (a.hash = b.hash && a.k = b.k && same_family a b)

let compare a b =
  let c = Linexpr.compare a.lhs b.lhs in
  if c <> 0 then c else Int.compare a.k b.k

(* A check with no symbolic terms is decidable at compile time:
   [0 <= k]. *)
let compile_time_value t = if Linexpr.is_zero t.lhs then Some (0 <= t.k) else None

let mentions_key t k = Linexpr.mentions_key t.lhs k

let atom_keys t = Linexpr.atom_keys t.lhs

let hash t = t.hash

module Families = struct
  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = same_family
    let hash c = c.fhash
  end)

  type t = int Tbl.t

  let create () : t = Tbl.create 16

  let id t c =
    match Tbl.find_opt t c with
    | Some f -> f
    | None ->
        let f = Tbl.length t in
        Tbl.add t c f;
        f
end

let pp ppf t = Fmt.pf ppf "Check (%a <= %d)" Linexpr.pp t.lhs t.k
