(* Canonical linear range expressions: sums [c1*a1 + c2*a2 + ...] with
   non-zero integer coefficients and atoms in strictly increasing key
   order (the paper's "canonical order of symbolic terms", section 2.2).

   The constant part of a check is *not* stored here; it is folded into
   the check's range constant (see {!Check}). *)

type t = (Atom.t * int) list (* strictly increasing by atom key, coeff <> 0 *)

exception Overflow

(* Checked coefficient arithmetic. Coefficients live in OCaml's native
   [int]; silently wrapping at [Int.max_int] would turn a strong check
   into a wrong one, so every sum/product either yields the exact
   mathematical result or raises {!Overflow} — callers doing
   speculative reasoning (the oracle, gcd normalization) treat it as
   "unknown" and bail. *)
let cadd a b =
  let s = a + b in
  (* Signed overflow iff both operands share a sign and the sum does
     not. *)
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then raise Overflow;
  s

(* Operands below 2^30 in magnitude cannot overflow a 63-bit product. *)
let small = 1 lsl 30

let cmul a b =
  if a = 0 || b = 0 then 0
  else if a < small && a > -small && b < small && b > -small then a * b
  else
    let p = a * b in
    (* min_int / -1 itself overflows, so test it first. *)
    if (a = Int.min_int && b = -1) || (b = Int.min_int && a = -1) then raise Overflow
    else if p / b <> a then raise Overflow
    else p

let checked_add = cadd
let checked_mul = cmul

let zero : t = []

let is_zero (t : t) = t = []

let of_atom ?(coeff = 1) a : t = if coeff = 0 then [] else [ (a, coeff) ]

(* Merge two sorted term lists, summing coefficients. *)
let rec add (a : t) (b : t) : t =
  match (a, b) with
  | [], t | t, [] -> t
  | (xa, ca) :: ra, (xb, cb) :: rb ->
      let c = Atom.compare xa xb in
      if c < 0 then (xa, ca) :: add ra b
      else if c > 0 then (xb, cb) :: add a rb
      else
        let s = cadd ca cb in
        if s = 0 then add ra rb else (xa, s) :: add ra rb

let scale k (t : t) : t = if k = 0 then [] else List.map (fun (a, c) -> (a, cmul c k)) t

let neg t = scale (-1) t

let sub a b = add a (neg b)

let of_terms terms =
  List.fold_left (fun acc (a, c) -> add acc (of_atom ~coeff:c a)) zero terms

let terms (t : t) = t

let atoms (t : t) = List.map fst t

let atom_keys (t : t) = List.map (fun (a, _) -> Atom.key a) t

let mentions_key (t : t) k = List.exists (fun (a, _) -> Atom.key a = k) t

let coeff_of_key (t : t) k =
  match List.find_opt (fun (a, _) -> Atom.key a = k) t with
  | Some (_, c) -> c
  | None -> 0

let coeff_of (t : t) a = coeff_of_key t (Atom.key a)

(* Remove the term for atom [a] (if any), returning its coefficient and
   the remaining expression. *)
let split_atom (t : t) a =
  let c = coeff_of t a in
  (c, List.filter (fun (x, _) -> not (Atom.equal x a)) t)

(* Substitute atom [a] by linear expression [e] (used by loop-limit
   substitution: replace the index variable by its extreme value). *)
let subst (t : t) a (e : t) =
  let c, rest = split_atom t a in
  if c = 0 then t else add rest (scale c e)

let compare (a : t) (b : t) =
  List.compare
    (fun (xa, ca) (xb, cb) ->
      let c = Atom.compare xa xb in
      if c <> 0 then c else Int.compare ca cb)
    a b

let equal a b = compare a b = 0

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Greatest common divisor of all coefficients; 0 for the zero expr. *)
let coeff_gcd (t : t) = List.fold_left (fun g (_, c) -> gcd g c) 0 t

let hash (t : t) =
  List.fold_left (fun h (a, c) -> (h * 31) + (Atom.key a * 7) + c) 17 t

let pp ppf (t : t) =
  match t with
  | [] -> Fmt.string ppf "0"
  | (a0, c0) :: rest ->
      let pp_first ppf (a, c) =
        if c = 1 then Atom.pp ppf a
        else if c = -1 then Fmt.pf ppf "-%a" Atom.pp a
        else Fmt.pf ppf "%d*%a" c Atom.pp a
      in
      let pp_next ppf (a, c) =
        if c = 1 then Fmt.pf ppf "+%a" Atom.pp a
        else if c = -1 then Fmt.pf ppf "-%a" Atom.pp a
        else if c > 0 then Fmt.pf ppf "+%d*%a" c Atom.pp a
        else Fmt.pf ppf "-%d*%a" (-c) Atom.pp a
      in
      pp_first ppf (a0, c0);
      List.iter (pp_next ppf) rest
