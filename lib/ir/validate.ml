(* Per-compile translation validation (the oracle reused as a checker).

   After optimization, prove — for every check site of the reference
   function — that the optimized function still performs that check or
   renders it unnecessary: the residual check set available at the
   corresponding program point, plus the branch conditions known on
   every path into the block, implies the original check's constraint.
   The proof engine is {!Nascent_checks.Oracle}; a successful run is a
   certificate that no execution the original program would have
   trapped on slips through the optimized one.

   Why a lockstep walk is enough: every optimizer pass preserves block
   ids ({!Transform.copy_func} snapshots keep them; new blocks from
   edge splitting or preheaders are appended past the reference range)
   and never removes or reorders non-check instructions. So reference
   and optimized block [bid] agree on their non-check instruction
   sequence — modulo assignments to variables the reference never
   mentions (the INX rewrite's materialized basic variables), which the
   walk skips while still applying their transfer — and check
   obligations can be discharged region by region between matching
   instructions.

   Hypotheses are a must-state over the optimized function with two
   parts:
   - {e facts}: canonical constraints guaranteed to hold — performed
     checks, linearizable branch conditions of the edges leading in
     (the "dominating guards"), and the strongest postconditions of
     assignments: [v := v + c] shifts every fact mentioning [v]'s atom
     ([a*v + r <= k] becomes [a*v + r <= k + a*c]), and [v := e] with a
     [v]-free linear [e] contributes the equality [v = e] as two
     inequalities. This is what lets loop-body obligations discharge:
     the preheader's [i := lo] plus the latch's shifted facts and the
     trip-test edge fact reconstruct the induction variable's range.
   - {e conditional facts} [guards => check] from [Cond_check]s (the
     insertion scheme's hoisted, trip-guarded checks). They flow along
     and activate by closure wherever the current facts prove their
     guards — inside the loop the trip condition is an edge fact, so
     the preheader's guarded bound check becomes available exactly
     where the deleted body checks need it.

   Block entry states come from a forward data-flow. The meet is
   semantic: a candidate fact (drawn from every incoming path) survives
   if {e every} path proves it — plain set intersection would lose
   facts that hold on all paths under different spellings ([i = lo] on
   the preheader path versus [i <= hi] on the back edge). Conditional
   facts meet by intersection. A [Trap] makes everything after it dead,
   so remaining obligations are vacuous.

   The validator is total and fail-safe: anything it cannot relate —
   structure mismatch, unlinearizable guard, oracle "unknown" — is a
   reported failure, never an exception, and the whole run is bounded
   by its own {!Guard} fuel budget. *)

module Atom = Nascent_checks.Atom
module Check = Nascent_checks.Check
module Linexpr = Nascent_checks.Linexpr
module Oracle = Nascent_checks.Oracle
module Guard = Nascent_support.Guard
open Types

let fuel_budget = 2_000_000
let budget_name = "validate"

type site = {
  s_func : string;
  s_bid : int;
  s_check : Check.t;
  s_reason : string;
}

type t = {
  total_sites : int;
  proven_sites : int;
  failures : site list; (* reference order; empty iff validated *)
}

let validated t = t.failures = []

let empty = { total_sites = 0; proven_sites = 0; failures = [] }

let merge a b =
  {
    total_sites = a.total_sites + b.total_sites;
    proven_sites = a.proven_sites + b.proven_sites;
    failures = a.failures @ b.failures;
  }

module CSet = Set.Make (Check)

module Cond = struct
  (* guards => fact, from a [Cond_check]; guards sorted for canonical
     set membership *)
  type t = Check.t list * Check.t

  let compare (g1, c1) (g2, c2) =
    match List.compare Check.compare g1 g2 with
    | 0 -> Check.compare c1 c2
    | n -> n
end

module CondSet = Set.Make (Cond)

type hstate = { facts : CSet.t; conds : CondSet.t }

let h_empty = { facts = CSet.empty; conds = CondSet.empty }

let h_equal a b =
  CSet.equal a.facts b.facts && CondSet.equal a.conds b.conds

(* --- boolean exprs as conjunctions of canonical constraints --------- *)

let rec ty_of (e : expr) : ty option =
  match e with
  | Cint _ -> Some Int
  | Creal _ -> Some Real
  | Cbool _ -> Some Bool
  | Evar v -> Some v.vty
  | Eload (a, _) -> Some a.aty
  | Eun (Neg, e) | Eun (Abs, e) -> ty_of e
  | Eun (Not, _) -> Some Bool
  | Ebin ((Add | Sub | Mul | Div | Mod | Min | Max), a, b) -> (
      match (ty_of a, ty_of b) with
      | Some Int, Some Int -> Some Int
      | Some Real, _ | _, Some Real -> Some Real
      | _ -> None)
  | Ebin ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> Some Bool

let int_operands a b = ty_of a = Some Int && ty_of b = Some Int

(* [Some cs]: the expr holds iff every constraint in [cs] holds.
   [None]: not a conjunction of integer comparisons (disjunctions,
   real comparisons, opaque booleans) — contributes no hypotheses.
   The [Lt]/[Gt] strict forms use the integer tightening [a < b <=>
   a <= b-1], which is why real operands are rejected. *)
let rec constraints_of ~(positive : bool) (atoms : Atoms.t) (e : expr) :
    Check.t list option =
  let lin e = Canon.linearize atoms e in
  (* a <= b + slack *)
  let le a b ~slack =
    let be, bc = lin b in
    Some [ Check.upper ~sub:(lin a) ~bound:(be, Linexpr.checked_add bc slack) ]
  in
  let both a b =
    match (a, b) with Some a, Some b -> Some (a @ b) | _ -> None
  in
  match (e, positive) with
  | Cbool b, _ -> if b = positive then Some [] else None
  | Eun (Not, e), _ -> constraints_of ~positive:(not positive) atoms e
  | Ebin (And, a, b), true | Ebin (Or, a, b), false ->
      both (constraints_of ~positive atoms a) (constraints_of ~positive atoms b)
  | Ebin (Le, a, b), true when int_operands a b -> le a b ~slack:0
  | Ebin (Lt, a, b), true when int_operands a b -> le a b ~slack:(-1)
  | Ebin (Ge, a, b), true when int_operands a b -> le b a ~slack:0
  | Ebin (Gt, a, b), true when int_operands a b -> le b a ~slack:(-1)
  | Ebin (Le, a, b), false when int_operands a b -> le b a ~slack:(-1)
  | Ebin (Lt, a, b), false when int_operands a b -> le b a ~slack:0
  | Ebin (Ge, a, b), false when int_operands a b -> le a b ~slack:(-1)
  | Ebin (Gt, a, b), false when int_operands a b -> le a b ~slack:0
  | Ebin (Eq, a, b), true when int_operands a b ->
      both (le a b ~slack:0) (le b a ~slack:0)
  | _ -> None

let constraints_of_opt ~positive atoms e =
  match constraints_of ~positive atoms e with
  | exception Linexpr.Overflow -> []
  | None -> []
  | Some cs -> cs

(* --- proofs ---------------------------------------------------------- *)

(* One compile's entailment memo, on top of the oracle's own: the
   semantic meet and the lockstep walk ask the same (facts, goal)
   question many times over, and a hit skips even building the
   hypothesis list. Keys are compared as sets, so the answer is the one
   [Oracle.implies] gives on [CSet.elements facts]. *)
module Cache = struct
  module Tbl = Hashtbl.Make (struct
    type t = CSet.t * Check.t

    let equal (f1, g1) (f2, g2) =
      Check.equal g1 g2 && (f1 == f2 || CSet.equal f1 f2)

    let hash (facts, goal) =
      CSet.fold (fun c h -> (h * 31) + Check.hash c) facts (Check.hash goal)
  end)

  type t = { oracle : Oracle.Cache.t; entails : bool Tbl.t }

  let create () = { oracle = Oracle.Cache.create (); entails = Tbl.create 256 }
end

(* One ambient tick per query, hit or miss, so the watchdogs still see
   every question asked; only a completed answer is memoised. *)
let entails (cache : Cache.t) (facts : CSet.t) (goal : Check.t) : bool =
  Guard.tick_ambient ();
  let key = (facts, goal) in
  match Cache.Tbl.find_opt cache.entails key with
  | Some v -> v
  | None ->
      let v = Oracle.implies ~cache:cache.oracle ~hyps:(CSet.elements facts) goal in
      Cache.Tbl.add cache.entails key v;
      v

(* Activate every conditional fact whose guards the current facts
   prove, to fixpoint (each round either fires at least one pending
   conditional or stops, so it terminates in at most |conds| rounds). *)
let close cache (h : hstate) : CSet.t =
  let facts = ref h.facts in
  let pending = ref (CondSet.elements h.conds) in
  let continue = ref (!pending <> []) in
  while !continue do
    continue := false;
    Guard.tick_ambient ();
    pending :=
      List.filter
        (fun (gs, c) ->
          if List.for_all (fun g -> entails cache !facts g) gs then begin
            facts := CSet.add c !facts;
            continue := true;
            false
          end
          else true)
        !pending
  done;
  !facts

(* --- hypothesis-state transfer over optimized instructions ---------- *)

let cond_mentions ((gs, c) : Cond.t) (k : int) : bool =
  Check.mentions_key c k || List.exists (fun g -> Check.mentions_key g k) gs

let kill_state (keys : int list) (h : hstate) : hstate =
  if keys = [] then h
  else
    {
      facts =
        CSet.filter
          (fun c -> not (List.exists (fun k -> Check.mentions_key c k) keys))
          h.facts;
      conds =
        CondSet.filter
          (fun cd -> not (List.exists (cond_mentions cd) keys))
          h.conds;
    }

(* Strongest postcondition of [v := e] over the hypothesis state:
   - pure self-increment [v := v + c]: every fact whose only killed
     atom is [v]'s own shifts exactly — [a*v_old + r <= k] becomes
     [a*v + r <= k + a*c];
   - [v := e] where the linearized [e] mentions nothing a definition
     of [v] kills: facts mentioning [v] die, and the equality
     [v = e] enters as two inequalities;
   - anything else (opaque right-hand side, self-reference through an
     opaque atom): plain kill. Conditional facts never shift. *)
let assign_transfer atoms (v : var) (e : expr) (h : hstate) : hstate =
  let killed = Atoms.killed_by_def atoms v in
  let plain_kill () = kill_state killed h in
  if v.vty <> Int then plain_kill ()
  else
    match Canon.linearize atoms e with
    | exception Linexpr.Overflow -> plain_kill ()
    | le, c -> (
        let kv = Atom.key (Atoms.of_var atoms v) in
        match Linexpr.terms le with
        | [ (a, 1) ] when Atom.key a = kv ->
            (* v := v + c *)
            let others = List.filter (fun k -> k <> kv) killed in
            let shift chk acc =
              if List.exists (fun k -> Check.mentions_key chk k) others then
                acc
              else
                let co = Linexpr.coeff_of_key (Check.lhs chk) kv in
                if co = 0 then CSet.add chk acc
                else
                  match
                    Linexpr.checked_add (Check.constant chk)
                      (Linexpr.checked_mul co c)
                  with
                  | k' -> CSet.add (Check.make (Check.lhs chk) k') acc
                  | exception Linexpr.Overflow -> acc
            in
            {
              facts = CSet.fold shift h.facts CSet.empty;
              conds =
                CondSet.filter
                  (fun cd -> not (List.exists (cond_mentions cd) killed))
                  h.conds;
            }
        | _
          when (not (Linexpr.mentions_key le kv))
               && not (List.exists (Linexpr.mentions_key le) killed) -> (
            let h = plain_kill () in
            let lv = Linexpr.of_atom (Atoms.of_var atoms v) in
            match
              ( Check.make (Linexpr.sub lv le) c,
                Check.make (Linexpr.sub le lv) (Linexpr.checked_mul (-1) c) )
            with
            | lo, hi -> { h with facts = CSet.add lo (CSet.add hi h.facts) }
            | exception Linexpr.Overflow -> h)
        | _ -> plain_kill ())

(* Transfer for one optimized-side instruction; [None] = code past an
   unconditional trap (dead, hypotheses irrelevant). [checks:false] is
   the {e ambient} variant: check instructions contribute nothing, so
   the resulting facts depend only on assignments and branch structure
   — exactly the facts that survive any further check deletion. *)
let transfer ?(checks = true) cache atoms (h : hstate option) (i : instr) :
    hstate option =
  match h with
  | None -> None
  | Some h -> (
      match i with
      | Check m ->
          if checks then Some { h with facts = CSet.add m.chk h.facts }
          else Some h
      | Cond_check _ when not checks -> Some h
      | Cond_check (g, m) -> (
          match constraints_of ~positive:true atoms g with
          | exception Linexpr.Overflow -> Some h
          | None -> Some h
          | Some [] -> Some { h with facts = CSet.add m.chk h.facts }
          | Some gs ->
              let conds =
                CondSet.add (List.sort Check.compare gs, m.chk) h.conds
              in
              let facts =
                if List.for_all (entails cache h.facts) gs then
                  CSet.add m.chk h.facts
                else h.facts
              in
              Some { facts; conds })
      | Trap _ -> None
      | Assign (v, e) -> Some (assign_transfer atoms v e h)
      | Store _ | Call _ -> Some (kill_state (Atoms.killed_by_store atoms) h)
      | Print _ -> Some h)

(* --- block-entry hypotheses: must-availability + edge facts --------- *)

(* Forward data-flow over the optimized function. out.(b) = None means
   "not yet reached" (top); in(b) is the semantic meet over reachable
   predecessors of out(p) + the constraints of the edge p->b's branch
   condition. A block ending in (or past) a trap propagates top. *)
let entry_hyps ?(checks = true) cache (f : Func.t) : hstate array =
  let atoms = f.Func.atoms in
  let n = Func.num_blocks f in
  let reach = Func.reachable f in
  let preds = Func.preds_array f in
  let out : hstate option option array = Array.make n None in
  (* outer None = unvisited(top); inner option = trap-dead *)
  let edge_facts p b =
    match (Func.block f p).term with
    | Branch (c, t, e) when t <> e ->
        if b = t then constraints_of_opt ~positive:true atoms c
        else if b = e then constraints_of_opt ~positive:false atoms c
        else []
    | _ -> []
  in
  (* Affine loop invariants as meet {e candidates}: a counted loop whose
     basic variable [h] was materialized by the INX rewrite maintains
     [index = lo + step*h] at its header (established by the
     preheader's [index := lo; h := 0], preserved by the latch's
     paired increments). The data-flow cannot invent this family on its
     own — the meet only keeps facts some incoming path already spells
     out — so the loop metadata {e suggests} the equality and every
     incoming path must still {e prove} it before it is admitted.
     Nothing is trusted: an invariant the code does not actually
     maintain simply fails its proof and is dropped. *)
  let inv_candidates : (int, Check.t list) Hashtbl.t =
    let tbl = Hashtbl.create 8 in
    List.iter
      (function
        | Lwhile _ | Ldo { d_basic = None; _ } -> ()
        | Ldo ({ d_basic = Some h; _ } as d) -> (
            match
              let le, lc = Canon.linearize atoms d.d_lo in
              let li = Linexpr.of_atom (Atoms.of_var atoms d.d_index) in
              let lh = Linexpr.of_atom (Atoms.of_var atoms h) in
              let lhs =
                Linexpr.sub (Linexpr.sub li (Linexpr.scale d.d_step lh)) le
              in
              ( Check.make lhs lc,
                Check.make (Linexpr.neg lhs) (Linexpr.checked_mul (-1) lc) )
            with
            | c1, c2 ->
                let prev =
                  Option.value (Hashtbl.find_opt tbl d.d_header) ~default:[]
                in
                Hashtbl.replace tbl d.d_header (c1 :: c2 :: prev)
            | exception Linexpr.Overflow -> ()))
      f.Func.loops;
    tbl
  in
  let in_of b =
    if b = f.Func.entry then h_empty
    else
      let paths =
        List.filter_map
          (fun p ->
            if not reach.(p) then None
            else
              match out.(p) with
              | None (* unvisited: top *) | Some None (* trap-dead *) -> None
              | Some (Some op) ->
                  Some
                    {
                      op with
                      facts =
                        List.fold_left
                          (fun s c -> CSet.add c s)
                          op.facts (edge_facts p b);
                    })
          preds.(b)
      in
      match paths with
      | [] -> h_empty
      | _ ->
          let judged = List.map (fun h -> (h.facts, lazy (close cache h))) paths in
          let proven_on_all c =
            List.for_all
              (fun (facts, closed) ->
                CSet.mem c facts || entails cache (Lazy.force closed) c)
              judged
          in
          let base =
            match paths with
            | [ h ] -> h
            | h0 :: rest ->
                (* Semantic meet: keep a candidate fact iff every path
                   proves it; conditional facts meet structurally. *)
                let conds =
                  List.fold_left
                    (fun acc h -> CondSet.inter acc h.conds)
                    h0.conds rest
                in
                let candidates =
                  List.fold_left
                    (fun acc h -> CSet.union acc h.facts)
                    h0.facts rest
                in
                { facts = CSet.filter proven_on_all candidates; conds }
            | [] -> assert false
          in
          List.fold_left
            (fun st c ->
              if CSet.mem c st.facts || not (proven_on_all c) then st
              else { st with facts = CSet.add c st.facts })
            base
            (Option.value (Hashtbl.find_opt inv_candidates b) ~default:[])
  in
  let same_out a b =
    match (a, b) with
    | None, None | Some None, Some None -> true
    | Some (Some x), Some (Some y) -> h_equal x y
    | _ -> false
  in
  let rpo = Func.rpo f in
  let changed = ref true in
  let ins = Array.make n h_empty in
  (* The semantic meet is not a lattice meet: a loop-carried bound can
     creep ([i <= 1], then [i <= 2], ... — each weakening provable from
     the entry path) and never settle. Widen from the third sweep on:
     keep only facts already present in the previous solution, so the
     per-block state is non-increasing and the solve terminates. Any
     fixpoint reached is sound — widening only removes facts, and a
     subset of a sound must-set is still a sound must-set. The sweep
     cap is a backstop for the fuel-bounded (hence not perfectly
     monotone) oracle inside [transfer]; on non-convergence fall back
     to the sound weak seed (empty hypothesis states). *)
  let max_sweeps = (2 * n) + 8 in
  let sweeps = ref 0 in
  while !changed && !sweeps <= max_sweeps do
    changed := false;
    incr sweeps;
    Guard.tick_ambient ();
    List.iter
      (fun b ->
        let i = in_of b in
        let i =
          if !sweeps <= 2 then i
          else
            {
              facts = CSet.inter i.facts ins.(b).facts;
              conds = CondSet.inter i.conds ins.(b).conds;
            }
        in
        ins.(b) <- i;
        let o =
          List.fold_left (transfer ~checks cache atoms) (Some i) (Func.block f b).instrs
        in
        if not (same_out out.(b) (Some o)) then begin
          out.(b) <- Some o;
          changed := true
        end)
      rpo
  done;
  if !changed then Array.make n h_empty else ins

(* --- the lockstep walk ---------------------------------------------- *)

let is_checkish = function Check _ | Cond_check _ | Trap _ -> true | _ -> false

let span p xs =
  let rec go acc = function
    | x :: rest when p x -> go (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] xs

(* Structural match for the non-check instructions both sides share. *)
let same_instr (a : instr) (b : instr) =
  match (a, b) with
  | Assign (v, e), Assign (v', e') -> v.vid = v'.vid && Expr.equal e e'
  | Store (r, ixs, e), Store (r', ixs', e') ->
      r.aid = r'.aid
      && List.length ixs = List.length ixs'
      && List.for_all2 Expr.equal ixs ixs'
      && Expr.equal e e'
  | Print e, Print e' -> Expr.equal e e'
  | Call (n, args), Call (n', args') -> n = n' && args = args'
  | _ -> false

let validate_block ~cache ~fname ~atoms ~orig_vids (entry : hstate) (ob : block)
    (pb : block) : t =
  let results = ref [] in
  let record chk ok reason =
    results := (chk, ok, reason) :: !results
  in
  (* Discharge the reference-side check region against the closed fact
     set; [dead] means the optimized side already trapped
     unconditionally. *)
  let discharge ~dead ~opt_region facts orig_region =
    List.iter
      (fun i ->
        Guard.tick_ambient ();
        match i with
        | Check m ->
            if dead then record m.chk true "dead-after-trap"
            else if entails cache facts m.chk then record m.chk true "implied"
            else if
              (* a trap in this region is justified replacement for a
                 compile-time-false check *)
              Check.compile_time_value m.chk = Some false
              && List.exists (function Trap _ -> true | _ -> false) opt_region
            then record m.chk true "trap"
            else record m.chk false "no proof"
        | Cond_check (g, m) ->
            if dead then record m.chk true "dead-after-trap"
            else if
              List.exists
                (function
                  | Cond_check (g', m') ->
                      Expr.equal g g' && Check.equal m.chk m'.chk
                  | _ -> false)
                opt_region
            then record m.chk true "retained"
            else if entails cache facts m.chk then record m.chk true "implied"
            else record m.chk false "guarded check lost"
        | Trap _ ->
            if not (dead || List.exists (function Trap _ -> true | _ -> false) opt_region)
            then record (Check.make Linexpr.zero (-1)) false "trap lost"
        | _ -> assert false)
      orig_region
  in
  let fail_rest reason orig_rest =
    List.iter
      (fun i ->
        match i with
        | Check m | Cond_check (_, m) -> record m.chk false reason
        | _ -> ())
      orig_rest
  in
  let step h i = Option.value (transfer cache atoms (Some h) i) ~default:h_empty in
  let rec walk ~dead hyps orig opt =
    let orig_region, orig_rest = span is_checkish orig in
    let opt_region, opt_rest = span is_checkish opt in
    (* All checks of the optimized region strengthen the hypotheses
       before obligations are discharged: within a region there are no
       kills, and a region check that traps makes the remaining
       obligations vacuous anyway. *)
    let hyps' =
      List.fold_left (transfer cache atoms) (Some hyps) opt_region
    in
    let dead' = dead || hyps' = None in
    let hyps' = Option.value hyps' ~default:h_empty in
    discharge ~dead ~opt_region (close cache hyps') orig_region;
    match (orig_rest, opt_rest) with
    | [], _ ->
        (* No obligations left; any trailing optimized-side
           instructions (inserted checks, materialized-variable
           assignments) carry no proof burden of their own. *)
        ()
    | o :: _, (Assign (v, _) as p) :: ps
      when (not (same_instr o p)) && not (Hashtbl.mem orig_vids v.vid) ->
        (* INX-materialized basic variable: skip, keep its transfer *)
        walk ~dead:dead' (step hyps' p) orig_rest ps
    | o :: os, p :: ps when same_instr o p ->
        walk ~dead:dead' (step hyps' p) os ps
    | _, _ -> fail_rest "structure mismatch" orig_rest
  in
  walk ~dead:false entry ob.instrs pb.instrs;
  let results = List.rev !results in
  {
    total_sites = List.length results;
    proven_sites = List.length (List.filter (fun (_, ok, _) -> ok) results);
    failures =
      List.filter_map
        (fun (chk, ok, reason) ->
          if ok then None
          else
            Some { s_func = fname; s_bid = ob.bid; s_check = chk; s_reason = reason })
        results;
  }

let func_cached cache ~(original : Func.t) ~(optimized : Func.t) : t =
  let atoms = optimized.Func.atoms in
  let entry = entry_hyps cache optimized in
  let reach = Func.reachable original in
  (* Variables the reference function mentions anywhere: assignments to
     anything else on the optimized side are compiler-materialized. *)
  let orig_vids = Hashtbl.create 64 in
  List.iter
    (fun (v : var) -> Hashtbl.replace orig_vids v.vid ())
    original.Func.vars;
  List.iter
    (function Pscalar v -> Hashtbl.replace orig_vids v.vid () | Parr _ -> ())
    original.Func.params;
  let acc = ref empty in
  Func.iter_blocks
    (fun ob ->
      if reach.(ob.bid) && ob.bid < Func.num_blocks optimized then
        let pb = Func.block optimized ob.bid in
        acc :=
          merge !acc
            (validate_block ~cache ~fname:original.Func.fname ~atoms ~orig_vids
               entry.(ob.bid) ob pb))
    original;
  !acc

let func ~original ~optimized = func_cached (Cache.create ()) ~original ~optimized

let func_guarded ~cache ~original ~optimized : t =
  let fuel = Guard.fuel ~what:budget_name ~budget:fuel_budget in
  try Guard.with_fuel fuel (fun () -> func_cached cache ~original ~optimized)
  with Guard.Fuel_exhausted w when w = budget_name ->
    let _, checks = Func.static_counts original in
    {
      total_sites = checks;
      proven_sites = 0;
      failures =
        [
          {
            s_func = original.Func.fname;
            s_bid = original.Func.entry;
            s_check = Check.make Linexpr.zero 0;
            s_reason = "validation fuel exhausted";
          };
        ];
    }

let program ~(original : Program.t) ~(optimized : Program.t) : t =
  List.fold_left
    (fun acc (f : Func.t) ->
      match Program.find optimized f.Func.fname with
      | None ->
          merge acc
            {
              total_sites = 0;
              proven_sites = 0;
              failures =
                [
                  {
                    s_func = f.Func.fname;
                    s_bid = 0;
                    s_check = Check.make Linexpr.zero 0;
                    s_reason = "function missing from optimized program";
                  };
                ];
            }
      | Some opt ->
          merge acc (func_guarded ~cache:(Cache.create ()) ~original:f ~optimized:opt))
    empty
    (Program.funcs_sorted original)

let pp_site ppf s =
  Fmt.pf ppf "%s.b%d: %a — %s" s.s_func s.s_bid Check.pp s.s_check s.s_reason

let pp ppf t =
  if validated t then
    Fmt.pf ppf "validated: %d/%d check sites proven" t.proven_sites t.total_sites
  else
    Fmt.pf ppf "@[<v>NOT validated: %d/%d check sites proven@,%a@]"
      t.proven_sites t.total_sites (Fmt.list pp_site) t.failures

(* Positions of plain check instructions the validator could not
   re-prove if they were deleted: the check's constraint is unprovable
   from the full hypothesis state of its check region with the site
   itself excluded — exactly the discharge the lockstep walk would
   attempt for that obligation after the deletion. Used by
   {!Mutate.Unsound_eliminate} to pick deletions the validator is
   guaranteed to catch (under schemes whose residual in-place checks
   are reference checks). *)
let fragile_sites (f : Func.t) : (block * int) list =
  let atoms = f.Func.atoms in
  let cache = Cache.create () in
  let entry = entry_hyps cache f in
  let reach = Func.reachable f in
  let acc = ref [] in
  Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then begin
        let instrs = Array.of_list b.instrs in
        let n = Array.length instrs in
        let h = ref (Some entry.(b.bid)) in
        let i = ref 0 in
        while !i < n do
          if is_checkish instrs.(!i) then begin
            (* a check region [j0, j1), as the walk spans them *)
            let j0 = !i in
            while !i < n && is_checkish instrs.(!i) do
              incr i
            done;
            let j1 = !i in
            (match !h with
            | None -> () (* dead past a trap: obligations are vacuous *)
            | Some h0 ->
                for j = j0 to j1 - 1 do
                  match instrs.(j) with
                  | Check m ->
                      let hyps = ref (Some h0) in
                      for k = j0 to j1 - 1 do
                        if k <> j then hyps := transfer cache atoms !hyps instrs.(k)
                      done;
                      (match !hyps with
                      | Some s when not (entails cache (close cache s) m.chk) ->
                          acc := (b, j) :: !acc
                      | _ -> ())
                  | _ -> ()
                done);
            for k = j0 to j1 - 1 do
              h := transfer cache atoms !h instrs.(k)
            done
          end
          else begin
            h := transfer cache atoms !h instrs.(!i);
            incr i
          end
        done
      end)
    f;
  List.rev !acc

(* --- the ambient fact engine, exposed for oracle elimination --------- *)

module Facts = struct
  type state = hstate

  let ambient_entry ~cache (f : Func.t) : state array =
    entry_hyps ~checks:false cache f

  let step ~cache atoms (s : state option) (i : instr) : state option =
    transfer ~checks:false cache atoms s i

  let proves ~cache (s : state) (goal : Check.t) : bool =
    entails cache (close cache s) goal
end
