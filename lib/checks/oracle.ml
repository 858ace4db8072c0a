(* Omega-lite implication oracle over canonical checks.

   The CIG proves implications only *within* a syntactic family (same
   range expression, constant comparison). This module decides the
   cross-family cases — conjunctions of linear inequalities over the
   same atom vocabulary — by refutation with Fourier–Motzkin variable
   elimination plus gcd tightening:

     hyps |= goal   iff   hyps /\ not(goal) is unsatisfiable

   where not(e <= k) is (-e <= -k-1) over the integers.

   Soundness: every elimination step is satisfiability-preserving in
   one direction — an integer solution of the input system yields a
   solution of the projected system, and gcd tightening
   (g*e <= k <=> e <= floor(k/g), g > 0) is an integer equivalence. So
   a derived contradiction (0 <= k with k < 0) really refutes the
   system and [implies] answering [true] is always sound.

   Incompleteness: integer projection can need Omega's dark shadow,
   which we do not implement, and the fuel bound can stop elimination
   early. Both cases answer [false] ("unknown"), which merely keeps a
   check the optimizer might have deleted — conservative in the safe
   direction.

   Never hangs: the engine charges a local {!Guard} fuel budget per
   round and per combination step and additionally ticks the ambient
   budgets, so a pathological system exhausts the oracle's own fuel
   (answer: false) long before it could wedge a pass, and the per-pass
   watchdog still observes the work. *)

module Guard = Nascent_support.Guard

let fuel_budget = 4096
let budget_name = "oracle"

let max_constraints = 256
(* Growth cap per elimination round: FM is worst-case quadratic per
   variable; past this many live constraints we give up (unknown)
   rather than churn fuel on a system we will not refute. *)

exception Refuted
exception Unknown

(* --- the kernel ------------------------------------------------------- *)

(* A system's columns are the query's atoms, numbered in order of first
   appearance. A row is an [int] array: its [w] coefficients, its
   constant ([c.(0)*x0 + ... <= c.(w)]), then a hash of the
   coefficients. The live rows are [rows.(0 .. n-1)], no two with the
   same coefficients, and [pos.(j)] / [neg.(j)] count those with a
   positive / negative coefficient in column [j]. *)
type system = {
  w : int;
  mutable rows : int array array;
  mutable n : int;
  pos : int array;
  neg : int array;
}

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* floor division for possibly-negative dividends *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let count sys row d =
  for j = 0 to sys.w - 1 do
    let c = row.(j) in
    if c > 0 then sys.pos.(j) <- sys.pos.(j) + d
    else if c < 0 then sys.neg.(j) <- sys.neg.(j) + d
  done

(* the index of the live row with [row]'s coefficients, or -1 *)
let find_row sys (row : int array) =
  let w = sys.w in
  let rec same (r : int array) j = j < 0 || (r.(j) = row.(j) && same r (j - 1)) in
  let rec go i =
    if i = sys.n then -1
    else
      let r = sys.rows.(i) in
      if r.(w + 1) = row.(w + 1) && same r (w - 1) then i else go (i + 1)
  in
  go 0

(* Insert a fresh row (the system takes it over): gcd-tighten it
   (g*e <= k <=> e <= floor(k/g)), decide it when it has no terms left
   — [0 <= k] with [k < 0] refutes the system, a true one is dropped —
   and otherwise keep the stronger of it and any live row with the
   same coefficients. Most coefficients are units, so the gcd stops
   at the first 1. *)
let add_row sys (row : int array) =
  let w = sys.w in
  let g = ref 0 in
  for j = 0 to w - 1 do
    let c = row.(j) in
    if c <> 0 && !g <> 1 then g := if !g = 0 then abs c else gcd !g c
  done;
  let g = !g in
  if g = 0 then (if row.(w) < 0 then raise Refuted)
  else begin
    if g > 1 then begin
      for j = 0 to w - 1 do
        row.(j) <- row.(j) / g
      done;
      row.(w) <- fdiv row.(w) g
    end;
    let h = ref 0 in
    for j = 0 to w - 1 do
      h := (!h * 31) + row.(j)
    done;
    row.(w + 1) <- !h;
    match find_row sys row with
    | -1 ->
        if sys.n = Array.length sys.rows then begin
          let grown = Array.make (2 * sys.n) [||] in
          Array.blit sys.rows 0 grown 0 sys.n;
          sys.rows <- grown
        end;
        sys.rows.(sys.n) <- row;
        sys.n <- sys.n + 1;
        count sys row 1
    | i ->
        let r = sys.rows.(i) in
        if row.(w) < r.(w) then r.(w) <- row.(w)
  end

let system_of (cs : Check.t list) : system =
  let terms = List.map (fun c -> Linexpr.terms (Check.lhs c)) cs in
  let keys = Array.make (List.fold_left (fun n t -> n + List.length t) 0 terms) 0 in
  let w = ref 0 in
  let column k =
    let rec go j = if j = !w then -1 else if keys.(j) = k then j else go (j + 1) in
    go 0
  in
  List.iter
    (List.iter (fun (a, _) ->
         let k = Atom.key a in
         if column k < 0 then begin
           keys.(!w) <- k;
           incr w
         end))
    terms;
  let w = !w in
  let sys =
    { w; rows = Array.make 16 [||]; n = 0; pos = Array.make w 0; neg = Array.make w 0 }
  in
  List.iter2
    (fun c t ->
      let row = Array.make (w + 2) 0 in
      List.iter (fun (a, co) -> row.(column (Atom.key a)) <- co) t;
      row.(w) <- Check.constant c;
      add_row sys row)
    cs terms;
  sys

(* The column with the fewest pos*neg pairings (the classic FM
   heuristic), the lowest-numbered on a tie; -1 when no row has a
   term left. *)
let pick sys =
  let best = ref (-1) and best_cost = ref max_int in
  for j = 0 to sys.w - 1 do
    let p = sys.pos.(j) and n = sys.neg.(j) in
    if p + n > 0 && p * n < !best_cost then begin
      best := j;
      best_cost := p * n
    end
  done;
  !best

(* Project column [x] away: its rows leave, and every row where [x] is
   positive pairs with every row where it is negative. For
   a*x + p <= kp (a > 0) and -b*x + n <= kn (b > 0):
     b*(a*x + p) + a*(-b*x + n) <= b*kp + a*kn
   cancels x exactly. All arithmetic is checked. *)
let project fuel sys x =
  let ps = ref [] and ns = ref [] and live = ref 0 in
  for i = 0 to sys.n - 1 do
    let r = sys.rows.(i) in
    if r.(x) = 0 then begin
      sys.rows.(!live) <- r;
      incr live
    end
    else begin
      count sys r (-1);
      if r.(x) > 0 then ps := r :: !ps else ns := r :: !ns
    end
  done;
  sys.n <- !live;
  let open Linexpr in
  List.iter
    (fun p ->
      let a = p.(x) in
      List.iter
        (fun n ->
          Guard.tick fuel;
          Guard.tick_ambient ();
          let b = -n.(x) in
          let row = Array.make (sys.w + 2) 0 in
          for j = 0 to sys.w do
            row.(j) <- checked_add (checked_mul b p.(j)) (checked_mul a n.(j))
          done;
          add_row sys row)
        !ns)
    !ps

let unsat_exn fuel (cs : Check.t list) : bool =
  let sys = system_of cs in
  let rec go () =
    Guard.tick fuel;
    Guard.tick_ambient ();
    if sys.n > max_constraints then raise Unknown;
    match pick sys with
    | -1 -> false (* purely constant system, nothing refuted: sat *)
    | x ->
        project fuel sys x;
        go ()
  in
  sys.n > 0 && go ()

let refute (cs : Check.t list) : bool =
  let fuel = Guard.fuel ~what:budget_name ~budget:fuel_budget in
  try unsat_exn fuel cs with
  | Refuted -> true
  | Unknown | Linexpr.Overflow -> false
  | Guard.Fuel_exhausted w when w = budget_name -> false

(* not(e <= k) = (e > k) = (-e <= -k-1). *)
let negate (c : Check.t) : Check.t =
  Check.make
    (Linexpr.neg (Check.lhs c))
    (Linexpr.checked_add (-Check.constant c) (-1))

(* A per-compile memo of refutations. An answer is a function of the
   exact input: the oracle's own fuel is fresh per query, and every
   other source of [false] (overflow, the constraint cap,
   incompleteness) is deterministic. So a hit returns exactly what
   re-running the query would. The key is the constraint list as given
   — its order numbers the columns, which break ties in the column
   pick — stored as an array. Only completed answers are stored: an
   ambient budget or deadline that fires mid-query propagates and
   records nothing. *)
module Cache = struct
  module Tbl = Hashtbl.Make (struct
    type t = Check.t array

    let equal a b = Array.length a = Array.length b && Array.for_all2 Check.equal a b
    let hash cs = Array.fold_left (fun h c -> (h * 31) + Check.hash c) 0 cs
  end)

  type t = bool Tbl.t

  let create () : t = Tbl.create 64
end

let unsat ?cache (cs : Check.t list) : bool =
  match cache with
  | None -> refute cs
  | Some c -> (
      let key = Array.of_list cs in
      match Cache.Tbl.find_opt c key with
      | Some v -> v
      | None ->
          let v = refute cs in
          Cache.Tbl.add c key v;
          v)

(* --- hypothesis handles ----------------------------------------------- *)

(* atom keys: small non-negative ints *)
module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

module Goals = Hashtbl.Make (struct
  type t = Check.t

  let equal = Check.equal
  let hash = Check.hash
end)

(* A hypothesis set split once into variable-disjoint components (a
   union–find over atom keys). A hypothesis outside the components a
   goal's atoms touch cannot take part in refuting the goal's negation,
   so a goal runs elimination on its negation plus the touched
   components. The untouched ones still matter in one way: a
   contradictory set implies everything, and variable-disjoint blocks
   are unsatisfiable iff one of them is. So when elimination fails, the
   goal holds iff an untouched component is unsatisfiable, and each
   component's satisfiability is decided once per handle, the first
   time a goal needs it. Every memo holds completed answers only. *)
module Hyps = struct
  type t = {
    cache : Cache.t option;
    constants : Check.t list; (* hypotheses without atoms: [0 <= k] *)
    comps : Check.t array array; (* rows in hypothesis order *)
    comp_unsat : bool option array;
    goals : bool Goals.t;
  }

  let make ?cache (hyps : Check.t list) : t =
    let parent = Keys.create 16 in
    let rec find k =
      let p = Keys.find parent k in
      if p = k then k
      else
        let r = find p in
        Keys.replace parent k r;
        r
    in
    List.iter
      (fun h ->
        match Check.atom_keys h with
        | [] -> ()
        | k0 :: _ as ks ->
            List.iter (fun k -> if not (Keys.mem parent k) then Keys.add parent k k) ks;
            let r0 = find k0 in
            List.iter
              (fun k ->
                let r = find k in
                if r <> r0 then Keys.replace parent r r0)
              ks)
      hyps;
    (* components in order of first appearance *)
    let index = Keys.create 8 and rows = ref [] and constants = ref [] in
    List.iter
      (fun h ->
        match Check.atom_keys h with
        | [] -> constants := h :: !constants
        | k :: _ -> (
            let r = find k in
            match Keys.find_opt index r with
            | Some i -> rows := (i, h) :: !rows
            | None ->
                let i = Keys.length index in
                Keys.add index r i;
                rows := (i, h) :: !rows))
      hyps;
    let comps = Array.make (Keys.length index) [] in
    List.iter (fun (i, h) -> comps.(i) <- h :: comps.(i)) !rows;
    {
      cache;
      constants = !constants;
      comps = Array.map Array.of_list comps;
      comp_unsat = Array.make (Array.length comps) None;
      goals = Goals.create 4;
    }

  let comp_unsat h i =
    match h.comp_unsat.(i) with
    | Some v -> v
    | None ->
        let v = unsat ?cache:h.cache (Array.to_list h.comps.(i)) in
        h.comp_unsat.(i) <- Some v;
        v

  let decide h (goal : Check.t) : bool =
    let keys = Check.atom_keys goal in
    let touched =
      Array.map (Array.exists (fun r -> List.exists (Check.mentions_key r) keys)) h.comps
    in
    let rows = ref [] in
    for i = Array.length h.comps - 1 downto 0 do
      if touched.(i) then rows := Array.fold_right List.cons h.comps.(i) !rows
    done;
    let rows = !rows in
    (* Fast path: the within-family constant comparison needs no
       elimination and covers most queries the CIG already answers. A
       hypothesis of the goal's family has the goal's atoms, so it is
       a touched row or, for a goal without atoms, a constant. *)
    List.exists (fun c -> Check.implies_within_family c goal) rows
    || List.exists (fun c -> Check.implies_within_family c goal) h.constants
    ||
    match negate goal with
    | exception Linexpr.Overflow -> false
    | ng ->
        List.exists (fun c -> Check.constant c < 0) h.constants
        || unsat ?cache:h.cache (ng :: rows)
        ||
        let rec untouched_unsat i =
          i < Array.length h.comps
          && (((not touched.(i)) && comp_unsat h i) || untouched_unsat (i + 1))
        in
        untouched_unsat 0

  let implies h (goal : Check.t) : bool =
    match Goals.find_opt h.goals goal with
    | Some v -> v
    | None ->
        let v = decide h goal in
        Goals.add h.goals goal v;
        v
end

let implies ?cache ~hyps (goal : Check.t) : bool = Hyps.implies (Hyps.make ?cache hyps) goal
