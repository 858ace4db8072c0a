(* Omega-lite implication oracle over canonical checks.

   Syntactic implication holds only *within* a family (same range
   expression, constant comparison). This module decides the
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
   same coefficients, [hs.(i)] is [rows.(i)]'s hash, and [pos.(j)] /
   [neg.(j)] count those with a positive / negative coefficient in
   column [j]. *)
type system = {
  w : int;
  mutable rows : int array array;
  mutable hs : int array;
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
  let w = sys.w and h = row.(sys.w + 1) and hs = sys.hs in
  let rec same (r : int array) j = j < 0 || (r.(j) = row.(j) && same r (j - 1)) in
  let rec go i =
    if i = sys.n then -1 else if hs.(i) = h && same sys.rows.(i) (w - 1) then i else go (i + 1)
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
          let grown = Array.make (2 * sys.n) [||] and hs = Array.make (2 * sys.n) 0 in
          Array.blit sys.rows 0 grown 0 sys.n;
          Array.blit sys.hs 0 hs 0 sys.n;
          sys.rows <- grown;
          sys.hs <- hs
        end;
        sys.rows.(sys.n) <- row;
        sys.hs.(sys.n) <- !h;
        sys.n <- sys.n + 1;
        count sys row 1
    | i ->
        let r = sys.rows.(i) in
        if row.(w) < r.(w) then r.(w) <- row.(w)
  end

(* A constraint ready to enter a system: its atoms, as the dense ids
   the compile's context gives them, with their coefficients, in the
   check's term order, and its constant. Each check's row is computed
   once per compile; a query only numbers its rows' atoms as columns. *)
type prerow = { atoms : int array; coeffs : int array; k : int }

module Keys = Hashtbl.Make (Int)
module Checks = Hashtbl.Make (Check)

module Queries = Hashtbl.Make (struct
  type t = Check.t array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Check.equal a b
  let hash cs = Array.fold_left (fun h c -> (h * 31) + Check.hash c) 0 cs
end)

(* A compile's oracle context: dense ids for the atoms it meets, the
   row of every check it meets, scratch arrays indexed by atom id, and
   (in a {!Cache}) the memo of refutations. A scratch slot holds a
   value of the current system or handle iff its [mark] is the current
   [stamp]; each new one takes a fresh stamp, so nothing is reset. *)
type ctx = {
  memo : bool Queries.t option;
  atom_ids : int Keys.t;
  rows : prerow Checks.t;
  mutable stamp : int;
  mutable mark : int array;
  mutable col : int array; (* atom -> its column, or its component *)
  mutable parent : int array; (* atom -> union-find parent *)
}

let context memo =
  {
    memo;
    atom_ids = Keys.create 16;
    rows = Checks.create 64;
    stamp = 0;
    mark = [||];
    col = [||];
    parent = [||];
  }

let fresh_stamp ctx =
  ctx.stamp <- ctx.stamp + 1;
  ctx.stamp

let atom_id ctx key =
  match Keys.find_opt ctx.atom_ids key with
  | Some a -> a
  | None ->
      let a = Keys.length ctx.atom_ids in
      Keys.add ctx.atom_ids key a;
      if a >= Array.length ctx.col then begin
        let grow old fill =
          let b = Array.make (max 64 (2 * a)) fill in
          Array.blit old 0 b 0 (Array.length old);
          b
        in
        ctx.mark <- grow ctx.mark 0;
        ctx.col <- grow ctx.col 0;
        ctx.parent <- grow ctx.parent 0
      end;
      a

let row ctx (c : Check.t) : prerow =
  match Checks.find_opt ctx.rows c with
  | Some r -> r
  | None ->
      let terms = Array.of_list (Linexpr.terms (Check.lhs c)) in
      let r =
        {
          atoms = Array.map (fun (a, _) -> atom_id ctx (Atom.key a)) terms;
          coeffs = Array.map snd terms;
          k = Check.constant c;
        }
      in
      Checks.add ctx.rows c r;
      r

(* The system of [rows]. Columns are the rows' atoms numbered in order
   of first appearance. *)
let system_of ctx (rows : prerow list) : system =
  let s = fresh_stamp ctx and mark = ctx.mark and col = ctx.col in
  let rec number w = function
    | [] -> w
    | r :: rest ->
        let w = ref w in
        for i = 0 to Array.length r.atoms - 1 do
          let a = r.atoms.(i) in
          if mark.(a) <> s then begin
            mark.(a) <- s;
            col.(a) <- !w;
            incr w
          end
        done;
        number !w rest
  in
  let w = number 0 rows in
  let sys =
    {
      w;
      rows = Array.make 16 [||];
      hs = Array.make 16 0;
      n = 0;
      pos = Array.make w 0;
      neg = Array.make w 0;
    }
  in
  List.iter
    (fun r ->
      let row = Array.make (w + 2) 0 in
      for i = 0 to Array.length r.atoms - 1 do
        row.(col.(r.atoms.(i))) <- r.coeffs.(i)
      done;
      row.(w) <- r.k;
      add_row sys row)
    rows;
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
  let n0 = sys.n and w = sys.w in
  let ps = Array.make n0 [||] and np = ref 0 and ns = Array.make n0 [||] and nn = ref 0 in
  let live = ref 0 in
  for i = 0 to n0 - 1 do
    let r = sys.rows.(i) in
    if r.(x) = 0 then begin
      sys.rows.(!live) <- r;
      sys.hs.(!live) <- sys.hs.(i);
      incr live
    end
    else begin
      count sys r (-1);
      if r.(x) > 0 then begin
        ps.(!np) <- r;
        incr np
      end
      else begin
        ns.(!nn) <- r;
        incr nn
      end
    end
  done;
  sys.n <- !live;
  (* the latest positive row first, each with the latest negative first *)
  for pi = !np - 1 downto 0 do
    let p = ps.(pi) in
    let a = p.(x) in
    for ni = !nn - 1 downto 0 do
      let n = ns.(ni) in
      Guard.tick fuel;
      Guard.tick_ambient ();
      let b = -n.(x) in
      let row = Array.make (w + 2) 0 in
      for j = 0 to w do
        row.(j) <-
          Linexpr.checked_add (Linexpr.checked_mul b p.(j)) (Linexpr.checked_mul a n.(j))
      done;
      add_row sys row
    done
  done

let unsat_exn fuel ctx (rows : prerow list) : bool =
  let sys = system_of ctx rows in
  let rec go () =
    Guard.tick fuel;
    Guard.tick_ambient ();
    if sys.n > max_constraints then raise Unknown;
    match pick sys with
    | -1 -> false (* purely constant system, nothing refuted: sat *)
    | x ->
        Work.round ();
        project fuel sys x;
        go ()
  in
  sys.n > 0 && go ()

let refute ctx (rows : prerow list) : bool =
  Work.refutation ();
  let fuel = Guard.fuel ~what:budget_name ~budget:fuel_budget in
  try unsat_exn fuel ctx rows with
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
   records nothing. The memo comes with the compile's oracle context,
   so its atom ids and rows are computed once too. *)
module Cache = struct
  type t = ctx

  let create () = context (Some (Queries.create 64))
end

let ctx_of = function Some c -> c | None -> context None

(* [unsat_rows ctx key rows]: is [key], whose rows are [rows],
   unsatisfiable? *)
let unsat_rows ctx key rows : bool =
  match ctx.memo with
  | None -> refute ctx (Lazy.force rows)
  | Some memo -> (
      match Queries.find_opt memo key with
      | Some v -> v
      | None ->
          let v = refute ctx (Lazy.force rows) in
          Queries.add memo key v;
          v)

let unsat ?cache (cs : Check.t list) : bool =
  let ctx = ctx_of cache in
  unsat_rows ctx (Array.of_list cs) (lazy (List.map (row ctx) cs))

module Goals = Hashtbl.Make (Check)

(* A hypothesis set split once into variable-disjoint components (a
   union–find over the atom ids of the compile's context). A hypothesis
   outside the components a goal's atoms touch cannot take part in
   refuting the goal's negation, so a goal runs elimination on its
   negation plus the touched components. The untouched ones still
   matter in one way: a contradictory set implies everything, and
   variable-disjoint blocks are unsatisfiable iff one of them is. So
   when elimination fails, the goal holds iff an untouched component is
   unsatisfiable, and each component's satisfiability is decided once
   per handle, the first time a goal needs it. Every memo holds
   completed answers only. *)
module Hyps = struct
  type t = {
    ctx : ctx;
    vocab : int array; (* the hypotheses' atoms, in order of first appearance *)
    comp_of : int array; (* [vocab.(i)]'s component *)
    constants : Check.t list; (* hypotheses without atoms: [0 <= k] *)
    comps : Check.t array array; (* rows in hypothesis order *)
    rows : prerow array array; (* [comps], ready for a system *)
    comp_unsat : bool option array;
    goals : bool Goals.t;
  }

  let make ?cache (hyps : Check.t list) : t =
    let ctx = ctx_of cache in
    let hs = Array.of_list hyps in
    let rs = Array.map (row ctx) hs in
    let s = fresh_stamp ctx and mark = ctx.mark and parent = ctx.parent and comp = ctx.col in
    let vocab = ref [] in
    Array.iter
      (fun r ->
        Array.iter
          (fun a ->
            if mark.(a) <> s then begin
              mark.(a) <- s;
              parent.(a) <- a;
              comp.(a) <- -1;
              vocab := a :: !vocab
            end)
          r.atoms)
      rs;
    let rec find a =
      let p = parent.(a) in
      if p = a then a
      else
        let r = find p in
        parent.(a) <- r;
        r
    in
    Array.iter
      (fun r ->
        if Array.length r.atoms > 0 then begin
          let r0 = find r.atoms.(0) in
          Array.iter
            (fun a ->
              let ra = find a in
              if ra <> r0 then parent.(ra) <- r0)
            r.atoms
        end)
      rs;
    (* components in order of first appearance, numbered at their roots *)
    let ncomps = ref 0 and of_hyp = Array.make (Array.length hs) (-1) in
    Array.iteri
      (fun i r ->
        if Array.length r.atoms > 0 then begin
          let root = find r.atoms.(0) in
          if comp.(root) < 0 then begin
            comp.(root) <- !ncomps;
            incr ncomps
          end;
          of_hyp.(i) <- comp.(root)
        end)
      rs;
    let members = Array.make !ncomps [] and constants = ref [] in
    for i = Array.length hs - 1 downto 0 do
      match of_hyp.(i) with
      | -1 -> constants := hs.(i) :: !constants
      | c -> members.(c) <- i :: members.(c)
    done;
    let vocab = Array.of_list (List.rev !vocab) in
    {
      ctx;
      vocab;
      comp_of = Array.map (fun a -> comp.(find a)) vocab;
      constants = !constants;
      comps = Array.map (fun m -> Array.of_list (List.map (Array.get hs) m)) members;
      rows = Array.map (fun m -> Array.of_list (List.map (Array.get rs) m)) members;
      comp_unsat = Array.make !ncomps None;
      goals = Goals.create 4;
    }

  let comp_unsat h i =
    match h.comp_unsat.(i) with
    | Some v -> v
    | None ->
        let v = unsat_rows h.ctx h.comps.(i) (lazy (Array.to_list h.rows.(i))) in
        h.comp_unsat.(i) <- Some v;
        v

  let decide h (goal : Check.t) : bool =
    let touched = Array.make (Array.length h.comps) false in
    Array.iter
      (fun a ->
        let rec go i =
          if i < Array.length h.vocab then
            if h.vocab.(i) = a then touched.(h.comp_of.(i)) <- true else go (i + 1)
        in
        go 0)
      (row h.ctx goal).atoms;
    let rows = ref [] and pre = ref [] in
    for i = Array.length h.comps - 1 downto 0 do
      if touched.(i) then begin
        rows := Array.fold_right List.cons h.comps.(i) !rows;
        pre := Array.fold_right List.cons h.rows.(i) !pre
      end
    done;
    let rows = !rows in
    (* Fast path: the within-family constant comparison needs no
       elimination and covers most queries the family rule already
       answers. A
       hypothesis of the goal's family has the goal's atoms, so it is
       a touched row or, for a goal without atoms, a constant. *)
    List.exists (fun c -> Check.implies_within_family c goal) rows
    || List.exists (fun c -> Check.implies_within_family c goal) h.constants
    ||
    match negate goal with
    | exception Linexpr.Overflow -> false
    | ng ->
        List.exists (fun c -> Check.constant c < 0) h.constants
        || unsat_rows h.ctx (Array.of_list (ng :: rows)) (lazy (row h.ctx ng :: !pre))
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
        Work.goal ();
        let v = decide h goal in
        Goals.add h.goals goal v;
        v
end

let implies ?cache ~hyps (goal : Check.t) : bool = Hyps.implies (Hyps.make ?cache hyps) goal
