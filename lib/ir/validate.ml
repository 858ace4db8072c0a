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

   Block entry states are checked, not searched for, where they can
   be ({!checked_entry}): the ambient facts oracle-elim solved for,
   passed in as the [hint] argument, are pruned to an inductive
   invariant, and the residual checks' facts are added by a syntactic
   must-availability. Only if the walk from
   those falls short does a forward data-flow search for them
   ({!entry_hyps}). Its meet is semantic: a candidate fact (drawn from
   every incoming path) survives if {e every} path proves it — plain
   set intersection would lose facts that hold on all paths under
   different spellings ([i = lo] on the preheader path versus
   [i <= hi] on the back edge). Conditional facts meet by
   intersection. A [Trap] makes everything after it dead, and so every
   block that only a trap leads into: their obligations are vacuous.

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
  fallbacks : int; (* functions whose checked certificate fell back to the search *)
}

let validated t = t.failures = []

let empty = { total_sites = 0; proven_sites = 0; failures = []; fallbacks = 0 }

let merge a b =
  {
    total_sites = a.total_sites + b.total_sites;
    proven_sites = a.proven_sites + b.proven_sites;
    failures = a.failures @ b.failures;
    fallbacks = a.fallbacks + b.fallbacks;
  }

module Intern = Nascent_checks.Intern
module Ids = Intern.Ids

(* Facts and conditional facts [guards => fact] (from [Cond_check]s),
   as sets of the compile's interned ids ({!Intern}). *)
type hstate = { facts : Ids.t; conds : Ids.t }

let h_empty = { facts = Ids.empty; conds = Ids.empty }

let h_equal a b = Ids.equal a.facts b.facts && Ids.equal a.conds b.conds

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

(* Every proof is asked of the compile's {!Intern} pool, which holds an
   {!Oracle.Hyps} handle per fact set, each memoising its own goals,
   over the oracle's refutation memo. The semantic meet and the
   lockstep walk ask many goals of the same fact set; a caller holding
   a handle asks them without hashing the set again. A handle answers
   as [Oracle.implies] does on the set's checks in [Check.compare]
   order.

   One ambient tick per query, hit or miss, so the watchdogs still see
   every question asked. *)
let proves (h : Oracle.Hyps.t) (goal : Check.t) : bool =
  Guard.tick_ambient ();
  Oracle.Hyps.implies h goal

let entails pool facts goal = proves (Intern.handle pool facts) goal

(* [proves] for the fact set [facts ()], computed and looked up only
   when the first goal is asked, then held for every later goal. A
   [ref], not a [Lazy]: a computation cut off by an ambient budget
   leaves nothing behind. *)
let prover pool (facts : unit -> Ids.t) : int -> bool =
  let hd = ref None in
  fun goal ->
    let h =
      match !hd with
      | Some h -> h
      | None ->
          let h = Intern.handle pool (facts ()) in
          hd := Some h;
          h
    in
    proves h (Intern.check pool goal)

(* Activate every conditional fact whose guards the current facts
   prove, to fixpoint (each round either fires at least one pending
   conditional or stops, so it terminates in at most |conds| rounds). *)
let close pool (h : hstate) : Ids.t =
  let facts = ref h.facts in
  let pending = ref (Intern.conds pool h.conds) in
  let continue = ref (!pending <> []) in
  while !continue do
    continue := false;
    Guard.tick_ambient ();
    pending :=
      List.filter
        (fun (gs, c) ->
          if List.for_all (fun g -> entails pool !facts g) gs then begin
            facts := Ids.add (Intern.id pool c) !facts;
            continue := true;
            false
          end
          else true)
        !pending
  done;
  !facts

(* --- hypothesis-state transfer over optimized instructions ---------- *)

let kill_state pool (keys : int list) (h : hstate) : hstate =
  if keys = [] then h
  else { facts = Intern.kill pool keys h.facts; conds = Intern.kill_conds pool keys h.conds }

(* Strongest postcondition of [v := e] over the hypothesis state:
   - pure self-increment [v := v + c]: every fact whose only killed
     atom is [v]'s own shifts exactly — [a*v_old + r <= k] becomes
     [a*v + r <= k + a*c];
   - [v := e] where the linearized [e] mentions nothing a definition
     of [v] kills: facts mentioning [v] die, and the equality
     [v = e] enters as two inequalities;
   - anything else (opaque right-hand side, self-reference through an
     opaque atom): plain kill. Conditional facts never shift.
   The assignment is linearized, and its facts interned, once, and each
   fact's shift is computed once. What [v]'s definition kills is read at
   every use, after [e] is linearized, since linearizations (this one
   included) may add opaque atoms that mention [v]. *)
let assign_transfer pool atoms (v : var) (e : expr) : hstate -> hstate =
  let killed () = Atoms.killed_by_def atoms v in
  let plain_kill h = kill_state pool (killed ()) h in
  if v.vty <> Int then plain_kill
  else
    match Canon.linearize atoms e with
    | exception Linexpr.Overflow -> plain_kill
    | le, c -> (
        let kv = Atom.key (Atoms.of_var atoms v) in
        match Linexpr.terms le with
        | [ (a, 1) ] when Atom.key a = kv ->
            (* v := v + c *)
            fun h ->
              let killed = killed () in
              let others = List.filter (fun k -> k <> kv) killed in
              let moves = Intern.mentions pool (kv :: others) in
              let dies = Intern.mentions pool others in
              let shift i acc =
                if moves i && not (dies i) then Intern.shift pool i ~key:kv ~by:c :: acc
                else acc
              in
              (* facts mentioning neither [v] nor a killed atom stay as
                 they are, sharing the set *)
              {
                facts =
                  Ids.union
                    (Intern.kill pool (kv :: others) h.facts)
                    (Ids.of_list (List.filter (fun j -> j >= 0) (Ids.fold shift h.facts [])));
                conds = Intern.kill_conds pool killed h.conds;
              }
        | _ when not (Linexpr.mentions_key le kv) -> (
            let lv = Linexpr.of_atom (Atoms.of_var atoms v) in
            match
              ( Check.make (Linexpr.sub lv le) c,
                Check.make (Linexpr.sub le lv) (Linexpr.checked_mul (-1) c) )
            with
            | lo, hi ->
                let eq = Intern.of_checks pool [ lo; hi ] in
                fun h ->
                  let killed = killed () in
                  let h = kill_state pool killed h in
                  if List.exists (Linexpr.mentions_key le) killed then h
                  else { h with facts = Ids.union h.facts eq }
            | exception Linexpr.Overflow -> plain_kill)
        | _ -> plain_kill)

(* A conditional check's constraints: [Some []] when its guard holds
   outright, [None] when it cannot be spelled. *)
let guards_of atoms g =
  match constraints_of ~positive:true atoms g with exception Linexpr.Overflow -> None | gs -> gs

(* Transfer for one optimized-side instruction, prepared: its facts
   interned and its assignment linearized before any state is given.
   [None] = code past an unconditional trap (dead, hypotheses
   irrelevant). [checks:false] is the {e ambient} variant: check
   instructions contribute nothing, so the resulting facts depend only
   on assignments and branch structure — exactly the facts that survive
   any further check deletion. *)
let prepare ?(checks = true) pool atoms (i : instr) : hstate -> hstate option =
  let adds c =
    let c = Intern.id pool c in
    fun h -> Some { h with facts = Ids.add c h.facts }
  in
  match i with
  | Check m -> if checks then adds m.chk else Option.some
  | Cond_check _ when not checks -> Option.some
  | Cond_check (g, m) -> (
      match guards_of atoms g with
      | None -> Option.some
      | Some [] -> adds m.chk
      | Some gs ->
          let c = Intern.id pool m.chk and cd = Intern.cond pool gs m.chk in
          fun h ->
            let facts =
              if List.for_all (entails pool h.facts) gs then Ids.add c h.facts else h.facts
            in
            Some { facts; conds = Ids.add cd h.conds })
  | Trap _ -> fun _ -> None
  | Assign (v, e) ->
      let t = assign_transfer pool atoms v e in
      fun h -> Some (t h)
  | Store _ | Call _ -> fun h -> Some (kill_state pool (Atoms.killed_by atoms i) h)
  | Print _ -> Option.some

let transfer ?checks pool atoms (h : hstate option) (i : instr) : hstate option =
  match h with None -> None | Some h -> prepare ?checks pool atoms i h

(* Each block's transfer for a solve that visits blocks again and
   again: an instruction is prepared the first time it is reached, as
   [transfer] would have linearized it then, and kept. *)
let block_transfer ?checks pool (f : Func.t) : int -> hstate -> hstate option =
  let memo = Array.make (Func.num_blocks f) [] in
  fun b h ->
    if memo.(b) == [] then
      memo.(b) <-
        List.map (fun i -> lazy (prepare ?checks pool f.Func.atoms i)) (Func.block f b).instrs;
    List.fold_left
      (fun h t -> match h with None -> None | Some h -> Lazy.force t h)
      (Some h) memo.(b)

(* Transfer for the syntactic must-availability of residual checks:
   a check adds its fact, a conditional check its fact when unguarded
   and otherwise its conditional fact, plus the fact when [holds] says
   its guards hold here; a definition kills what mentions it. *)
let avail_transfer pool atoms ~(holds : Check.t list -> bool) (h : hstate option) (i : instr)
    : hstate option =
  let add h c = { h with facts = Ids.add (Intern.id pool c) h.facts } in
  match (h, i) with
  | None, _ | _, Trap _ -> None
  | Some h, Check m -> Some (add h m.chk)
  | Some h, Cond_check (g, m) -> (
      match guards_of atoms g with
      | None -> Some h
      | Some [] -> Some (add h m.chk)
      | Some gs ->
          let h = { h with conds = Ids.add (Intern.cond pool gs m.chk) h.conds } in
          if holds gs then Some (add h m.chk) else Some h)
  | Some h, (Assign _ | Store _ | Call _ | Print _) ->
      Some (kill_state pool (Atoms.killed_by atoms i) h)

(* --- block-entry hypotheses: must-availability + edge facts --------- *)

(* [edge_facts f p b]: the constraints of the branch condition on the
   edge [p -> b], each branch linearized and interned once. *)
let edge_facts pool (f : Func.t) : int -> int -> Ids.t =
  let facts positive c =
    Intern.of_checks pool (constraints_of_opt ~positive f.Func.atoms c)
  in
  let branches =
    Array.init (Func.num_blocks f) (fun p ->
        match (Func.block f p).term with
        | Branch (c, t, e) when t <> e ->
            Some (t, facts true c, e, facts false c)
        | _ -> None)
  in
  fun p b ->
    match branches.(p) with
    | Some (t, ct, _, _) when b = t -> ct
    | Some (_, _, e, ce) when b = e -> ce
    | _ -> Ids.empty

let with_edge edge p b (h : hstate) = { h with facts = Ids.union h.facts (edge p b) }

(* The incoming paths of [b]: each live predecessor's out-state plus
   the facts of its edge into [b]. Unreachable, unvisited and
   trap-dead predecessors are not among the engine's live sources. *)
let paths_into edge b (live : (int * hstate) list) =
  List.map (fun (p, op) -> with_edge edge p b op) live

(* A block's transferred state as the engine's fact: [Unreachable]
   past a trap. *)
let reached = function Some h -> Fixpoint.Reached h | None -> Fixpoint.Unreachable

(* Does every path prove [c]? Each path is closed and its fact set
   hashed once, on the first goal it neither holds nor implies within a
   family. A member costs nothing; every other question one ambient
   tick, whoever answers it. *)
let proven_on_all pool (paths : hstate list) : int -> bool =
  let judged = List.map (fun h -> (h.facts, prover pool (fun () -> close pool h))) paths in
  fun c ->
    List.for_all
      (fun (facts, prove) ->
        Ids.mem c facts
        ||
        if Intern.implied pool facts c then begin
          Guard.tick_ambient ();
          true
        end
        else prove c)
      judged

(* Forward data-flow over the optimized function, an instance of the
   fixpoint engine: in(b) is the semantic meet over the live
   predecessors of out(p) + the constraints of the edge p->b's branch
   condition. A block ending in (or past) a trap is [Unreachable] to
   its successors, and so is a block every path into which passes
   through one. *)
let entry_hyps ?(checks = true) pool (f : Func.t) : hstate Fixpoint.fact array =
  let atoms = f.Func.atoms in
  let n = Func.num_blocks f in
  let edge = edge_facts pool f in
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
  let inv_candidates : (int, int list) Hashtbl.t =
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
                Hashtbl.replace tbl d.d_header
                  (Intern.id pool c1 :: Intern.id pool c2 :: prev)
            | exception Linexpr.Overflow -> ()))
      f.Func.loops;
    tbl
  in
  (* The semantic meet is not a lattice meet: a loop-carried bound can
     creep ([i <= 1], then [i <= 2], ... — each weakening provable from
     the entry path) and never settle. Widen from the third sweep on:
     keep only facts already present in the block's previous in-state,
     so the per-block state is non-increasing and the solve terminates.
     Any fixpoint reached is sound — widening only removes facts, and a
     subset of a sound must-set is still a sound must-set. The result is
     intersected with [widen], so candidates outside it are dropped
     before anything is proven about them. *)
  let join ~sweep ~prev b live =
    let widen = match prev with Fixpoint.Reached w when sweep > 2 -> Some w | _ -> None in
    let within s = match widen with None -> s | Some w -> Ids.inter s w.facts in
    match paths_into edge b live with
    | [] -> Fixpoint.Unreachable
    | (h0 :: rest) as paths ->
        let proven_on_all = proven_on_all pool paths in
        let base =
          match rest with
          | [] -> { h0 with facts = within h0.facts }
          | _ ->
              (* Semantic meet: keep a candidate fact iff every path
                 proves it; conditional facts meet structurally. *)
              let conds = List.fold_left (fun acc h -> Ids.inter acc h.conds) h0.conds rest in
              let candidates =
                List.fold_left (fun acc h -> Ids.union acc h.facts) h0.facts rest
              in
              { facts = Ids.filter proven_on_all (within candidates); conds }
        in
        let base =
          match widen with
          | None -> base
          | Some w -> { base with conds = Ids.inter base.conds w.conds }
        in
        Fixpoint.Reached
          (List.fold_left
             (fun st c ->
               if
                 Ids.mem c st.facts
                 || (match widen with Some w -> not (Ids.mem c w.facts) | None -> false)
                 || not (proven_on_all c)
               then st
               else { st with facts = Ids.add c st.facts })
             base
             (Option.value (Hashtbl.find_opt inv_candidates b) ~default:[]))
  in
  let transfer =
    let t = block_transfer ~checks pool f in
    fun b h -> reached (t b h)
  in
  (* The sweep cap is a backstop for the fuel-bounded (hence not
     perfectly monotone) oracle inside [transfer]: 2n + 8 sweeps after
     the first. On non-convergence fall back to the sound weak seed
     (empty hypothesis states). *)
  let s =
    Fixpoint.solve ~cap:((2 * n) + 9) f
      { direction = Forward; boundary = Reached h_empty; join; transfer; equal = h_equal }
  in
  if not s.converged then Array.make n (Fixpoint.Reached h_empty) else s.flow_in

(* A dead block's state for a reader that cannot say "dead": no facts. *)
let facts_of = function Fixpoint.Reached h -> h | Unreachable -> h_empty

(* --- the checked certificate: a hint made inductive ------------------- *)

(* Block-entry states for the certificate, checked rather than searched
   for. Nothing in [hint] is trusted:
   - {e kept} facts: the greatest subset of the hint, found by
     descending from it, such that the entry block keeps nothing and
     every fact kept at [b] is proven by every live predecessor's
     ambient out-state (its transfer from its own kept facts, checks
     contributing nothing) plus the edge's facts. A block with no live
     predecessor is dead, as it is to the search. The kept
     sets are inductive, so they hold on every execution whatever the
     hint was. When the hint is the ambient solution, each question is
     one the solve already asked of the same fact set: a memo hit.
   - {e available} facts and conditional facts of the residual checks
     ({!avail_transfer}). At a join a fact survives if every path
     holds it or a stronger fact of its family, among its available
     facts or its kept out-state plus edge facts; conditional facts
     meet by intersection. After a block's first visit its set only
     shrinks, so the solve terminates.
   A block's state is the union of both, and every fact in it holds on
   every path in, by induction along the path. *)
let checked_entry pool (f : Func.t) (hint : hstate array) : hstate Fixpoint.fact array =
  let atoms = f.Func.atoms in
  let edge = edge_facts pool f in
  let ambient =
    let t = block_transfer ~checks:false pool f in
    fun b k -> reached (t b k)
  in
  let kept =
    Fixpoint.solve f
      ~seed:(fun b ->
        if b = f.Func.entry || b >= Array.length hint then h_empty
        else { h_empty with facts = hint.(b).facts })
      {
        direction = Forward;
        boundary = Reached h_empty;
        join =
          (fun ~sweep:_ ~prev b live ->
            match (prev, paths_into edge b live) with
            | Unreachable, _ | _, [] -> Unreachable
            | Reached k, paths ->
                Reached { h_empty with facts = Ids.filter (proven_on_all pool paths) k.facts });
        transfer = ambient;
        equal = h_equal;
      }
  in
  let kept_facts b =
    match kept.flow_in.(b) with Reached k -> k.facts | Unreachable -> Ids.empty
  in
  let kout = kept.flow_out in
  (* A conditional check's guards hold if the kept facts, carried
     through the block alongside, or the available ones imply each
     within its family. *)
  let avail_block b a =
    let instrs = (Func.block f b).instrs in
    if not (List.exists (function Cond_check _ -> true | _ -> false) instrs) then
      List.fold_left (avail_transfer pool atoms ~holds:(fun _ -> false)) (Some a) instrs
    else
      fst
        (List.fold_left
           (fun (a, k) i ->
             let holds gs =
               match (a, k) with
               | Some a, Some k ->
                   List.for_all
                     (fun g ->
                       let g = Intern.id pool g in
                       Intern.implied pool k.facts g || Intern.implied pool a.facts g)
                     gs
               | _ -> false
             in
             (avail_transfer pool atoms ~holds a i, transfer ~checks:false pool atoms k i))
           (Some a, Some { h_empty with facts = kept_facts b })
           instrs)
  in
  let join ~sweep:_ ~prev b live =
    let paths =
      List.filter_map
        (fun (p, a) ->
          match kout.(p) with
          | Fixpoint.Reached k -> Some (a, (with_edge edge p b k).facts)
          | Unreachable -> None)
        live
    in
    match paths with
    | [] -> Fixpoint.Unreachable
    | (a0, _) :: rest ->
        let holds c =
          List.for_all
            (fun (a, k) -> Intern.implied pool a.facts c || Intern.implied pool k c)
            paths
        in
        let facts =
          Ids.filter holds (List.fold_left (fun acc (a, _) -> Ids.union acc a.facts) a0.facts rest)
        in
        let conds = List.fold_left (fun acc (a, _) -> Ids.inter acc a.conds) a0.conds rest in
        Fixpoint.Reached
          (match prev with
          | Fixpoint.Unreachable -> { facts; conds }
          | Reached p -> { facts = Ids.inter facts p.facts; conds = Ids.inter conds p.conds })
  in
  let avail =
    Fixpoint.solve f
      {
        direction = Forward;
        boundary = Reached h_empty;
        join;
        transfer = (fun b a -> reached (avail_block b a));
        equal = h_equal;
      }
  in
  Array.mapi
    (fun b -> function
      | Fixpoint.Reached a -> Fixpoint.Reached { a with facts = Ids.union (kept_facts b) a.facts }
      | Unreachable -> Unreachable)
    avail.flow_in

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

let validate_block ~pool ~fname ~atoms ~orig_vids ~dead (entry : hstate) (ob : block)
    (pb : block) : t =
  let results = ref [] in
  let record chk ok reason =
    results := (chk, ok, reason) :: !results
  in
  (* Discharge the reference-side check region against the hypotheses
     [h], closed only once some obligation is neither a member of its
     facts nor implied within a family; [dead] means the optimized side
     already trapped unconditionally. Every question is one ambient
     tick, whoever answers it. *)
  let discharge ~dead ~opt_region h orig_region =
    let prove = prover pool (fun () -> close pool h) in
    let implied c =
      let c = Intern.id pool c in
      if Intern.implied pool h.facts c then begin
        Guard.tick_ambient ();
        true
      end
      else prove c
    in
    List.iter
      (fun i ->
        Guard.tick_ambient ();
        match i with
        | Check m ->
            if dead then record m.chk true "dead-after-trap"
            else if implied m.chk then record m.chk true "implied"
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
            else if implied m.chk then record m.chk true "implied"
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
  let step h i = Option.value (transfer pool atoms (Some h) i) ~default:h_empty in
  let rec walk ~dead hyps orig opt =
    let orig_region, orig_rest = span is_checkish orig in
    let opt_region, opt_rest = span is_checkish opt in
    (* All checks of the optimized region strengthen the hypotheses
       before obligations are discharged: within a region there are no
       kills, and a region check that traps makes the remaining
       obligations vacuous anyway. *)
    let hyps' =
      List.fold_left (transfer pool atoms) (Some hyps) opt_region
    in
    let dead' = dead || hyps' = None in
    let hyps' = Option.value hyps' ~default:h_empty in
    discharge ~dead ~opt_region hyps' orig_region;
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
  walk ~dead entry ob.instrs pb.instrs;
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
    fallbacks = 0;
  }

(* The certificate walks every reachable reference block from checked
   entry states ({!checked_entry}) over [hint] — solving for the
   ambient states first if none was given. Only if that walk leaves a
   site unproven does it search ({!entry_hyps}) and walk again; the
   result then counts one fallback. *)
let certify ?hint pool ~(original : Func.t) ~(optimized : Func.t) : t =
  let atoms = optimized.Func.atoms in
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
  (* A block no execution reaches is walked dead: its sites hold
     vacuously. *)
  let walk (entry : hstate Fixpoint.fact array) =
    let acc = ref empty in
    Func.iter_blocks
      (fun ob ->
        if reach.(ob.bid) && ob.bid < Func.num_blocks optimized then
          let pb = Func.block optimized ob.bid and e = entry.(ob.bid) in
          acc :=
            merge !acc
              (validate_block ~pool ~fname:original.Func.fname ~atoms ~orig_vids
                 ~dead:(e = Fixpoint.Unreachable) (facts_of e) ob pb))
      original;
    !acc
  in
  let hint =
    match hint with
    | Some h -> h
    | None -> Array.map facts_of (entry_hyps ~checks:false pool optimized)
  in
  let checked = walk (checked_entry pool optimized hint) in
  if validated checked then checked
  else { (walk (entry_hyps pool optimized)) with fallbacks = 1 }

let func_guarded ~pool ?hint ~original ~optimized () : t =
  let fuel = Guard.fuel ~what:budget_name ~budget:fuel_budget in
  try Guard.with_fuel fuel (fun () -> certify ?hint pool ~original ~optimized)
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
      fallbacks = 0;
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
              fallbacks = 0;
            }
      | Some opt ->
          merge acc (func_guarded ~pool:(Intern.create ()) ~original:f ~optimized:opt ()))
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

(* --- the ambient fact engine, exposed for oracle elimination --------- *)

module Facts = struct
  type state = hstate

  let ambient_entry ~pool f : state array = Array.map facts_of (entry_hyps ~checks:false pool f)
  let facts ~pool (s : state) = Intern.elements pool s.facts
  let of_facts ~pool (cs : Check.t list) : state = { h_empty with facts = Intern.of_checks pool cs }
  let step ~pool atoms (s : state option) (i : instr) = transfer ~checks:false pool atoms s i
  let proves ~pool (s : state) (goal : Check.t) : bool = entails pool (close pool s) goal
end
