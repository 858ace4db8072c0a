(* Fixed-universe mutable bitsets over [0, n).

   Data-flow analyses in the range-check optimizer manipulate sets of
   check indices; the universe (all canonical checks of a function) is
   fixed before the analysis starts, so a flat word array is the right
   representation. The universe size lives in slot 0 and the words
   follow, so a set is one block: the solvers allocate several per CFG
   block, and a set over a typical function's checks is then three heap
   words instead of five. *)

type t = int array (* t.(0) = n; bit i is bit (i mod w) of t.(1 + i / w) *)

let bits_per_word = Sys.int_size (* 63 on 64-bit *)

let nwords n = if n = 0 then 0 else ((n - 1) / bits_per_word) + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  let t = Array.make (nwords n + 1) 0 in
  t.(0) <- n;
  t

let universe (t : t) = t.(0)

let copy : t -> t = Array.copy

let check_idx t i =
  if i < 0 || i >= t.(0) then invalid_arg "Bitset: index out of universe"

let mem t i =
  check_idx t i;
  t.(1 + (i / bits_per_word)) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check_idx t i;
  let w = 1 + (i / bits_per_word) in
  t.(w) <- t.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check_idx t i;
  let w = 1 + (i / bits_per_word) in
  t.(w) <- t.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t 1 (Array.length t - 1) 0

(* Mask of valid bits in the last word, so [fill] keeps the invariant
   that bits >= n are zero (required for [equal] and [cardinal]). *)
let last_mask t =
  if t.(0) = 0 then 0
  else
    let used = t.(0) mod bits_per_word in
    if used = 0 then -1 else (1 lsl used) - 1

let fill t =
  let last = Array.length t - 1 in
  if last > 0 then begin
    Array.fill t 1 last (-1);
    t.(last) <- t.(last) land last_mask t
  end

let full n =
  let t = create n in
  fill t;
  t

let same_universe (a : t) (b : t) =
  if a.(0) <> b.(0) then invalid_arg "Bitset: universe mismatch"

let union_into ~into src =
  same_universe into src;
  for i = 1 to Array.length into - 1 do
    into.(i) <- into.(i) lor src.(i)
  done

let inter_into ~into src =
  same_universe into src;
  for i = 1 to Array.length into - 1 do
    into.(i) <- into.(i) land src.(i)
  done

let diff_into ~into src =
  same_universe into src;
  for i = 1 to Array.length into - 1 do
    into.(i) <- into.(i) land lnot src.(i)
  done

let union_diff_into ~into a b =
  same_universe into a;
  same_universe into b;
  for i = 1 to Array.length into - 1 do
    into.(i) <- into.(i) lor (a.(i) land lnot b.(i))
  done

let assign ~into src =
  same_universe into src;
  Array.blit src 1 into 1 (Array.length src - 1)

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  &&
  let i = ref 0 in
  while !i < Array.length a && a.(!i) = b.(!i) do
    incr i
  done;
  !i = Array.length a

let is_empty t =
  let i = ref 1 in
  while !i < Array.length t && t.(!i) = 0 do
    incr i
  done;
  !i = Array.length t

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t =
  let c = ref 0 in
  for i = 1 to Array.length t - 1 do
    c := !c + popcount_word t.(i)
  done;
  !c

let iter f t =
  for wi = 1 to Array.length t - 1 do
    let w = ref t.(wi) in
    while !w <> 0 do
      let low = !w land - !w in
      let bit =
        (* index of the lowest set bit *)
        let rec idx b acc = if b land 1 = 1 then acc else idx (b lsr 1) (acc + 1) in
        idx low 0
      in
      f (((wi - 1) * bits_per_word) + bit);
      w := !w land lnot low
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n xs =
  let t = create n in
  List.iter (add t) xs;
  t

let disjoint a b =
  same_universe a b;
  let i = ref 1 in
  while !i < Array.length a && a.(!i) land b.(!i) = 0 do
    incr i
  done;
  !i = Array.length a

let subset a b =
  same_universe a b;
  let i = ref 1 in
  while !i < Array.length a && a.(!i) land lnot b.(!i) = 0 do
    incr i
  done;
  !i = Array.length a

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) (elements t)
