(* Preheader insertion (paper section 3.3): hoist checks out of loops.

   Two variants:
   - [Invariant_only] (LI): a check whose range expression is invariant
     in the loop is inserted in the preheader as a conditional check,
     guarded by "the loop executes at least once";
   - [Loop_limit] (LLS): additionally, a check *linear* in the loop
     index variable is hoisted after substituting the extreme value the
     index takes, in the direction given by the sign of its
     coefficient — the substituted check holds for every iteration iff
     it holds at the extreme.

   Loops are processed inner to outer, so checks hoisted from an inner
   loop (now conditional checks in the inner preheader, which lies
   inside the outer loop) can be hoisted again, with conjoined guards —
   "checks from inner loops are hoisted to the outermost loop
   possible".

   Hoisting deletes the covered body check directly: it is implied by
   the inserted check for every iteration by construction (this is the
   implication the paper's LLS' variant preserves, from preheader
   conditional checks to the checks in the loop bodies they cover).

   Eligibility to hoist from loop L:
   - a plain check must be anticipatable at the beginning of L's body
     (the paper's rule: a check at least as strong runs on every path
     before its operands change, maybe only after the loop exits);
   - a conditional check (produced by hoisting out of an inner loop)
     must sit in a block that dominates every latch of L — it executes
     exactly once per iteration — and both its guard and its check must
     be invariant (or index-linear, for the check, under LLS). *)

module Ir = Nascent_ir
module Bitset = Nascent_support.Bitset
module Check = Nascent_checks.Check
module Linexpr = Nascent_checks.Linexpr
module Atom = Nascent_checks.Atom
module Universe = Nascent_checks.Universe
module Intern = Nascent_checks.Intern
module Loops = Nascent_analysis.Loops
module Expr = Nascent_ir.Expr
open Ir.Types

type variant =
  | Invariant_only (* LI *)
  | Loop_limit (* LLS *)
  | Markstein
      (* MCM, the Markstein/Cocke/Markstein 1982 restriction the paper
         suggests comparing against (section 5): only checks sitting in
         *articulation nodes* of the loop body (blocks on every path
         through an iteration) with *simple* range expressions (a
         single atom with unit coefficient) are hoisted — dominance
         reasoning instead of data-flow anticipatability. *)

(* --- classification ------------------------------------------------- *)

let atom_invariant (atoms : Ir.Atoms.t) (l : Loops.loop) (a : Atom.t) : bool =
  match Ir.Atoms.payload atoms (Atom.key a) with
  | Some (Ir.Atoms.Avar v) -> not (Loops.defines l v.vid)
  | Some (Ir.Atoms.Aopaque e) ->
      List.for_all (fun (v : var) -> not (Loops.defines l v.vid)) (Expr.vars_of e)
      && not (Expr.has_load e && l.Loops.has_store)
  | None -> false

let expr_invariant (l : Loops.loop) (e : expr) : bool =
  List.for_all (fun (v : var) -> not (Loops.defines l v.vid)) (Expr.vars_of e)
  && not (Expr.has_load e)

(* The range of an index-like variable: the set of values it takes when
   the loop executes, described by the two extreme values as
   linearizable expressions (or compile-time computation for non-unit
   steps). *)
type index_range = { min_e : expr; max_e : expr }

let index_range_of_do (d : do_info) : (var * index_range) option =
  let lo = d.d_lo and hi = d.d_hi and s = d.d_step in
  if s = 1 then Some (d.d_index, { min_e = lo; max_e = hi })
  else if s = -1 then Some (d.d_index, { min_e = hi; max_e = lo })
  else
    match (lo, hi) with
    | Cint lo, Cint hi ->
        (* exact last value; the loop body sees lo, lo+s, ..., last *)
        if s > 0 then
          let last = lo + (max 0 (hi - lo) / s * s) in
          Some (d.d_index, { min_e = Cint lo; max_e = Cint last })
        else
          let last = lo - (max 0 (lo - hi) / -s * -s) in
          Some (d.d_index, { min_e = Cint last; max_e = Cint lo })
    | _ -> None (* symbolic bounds with |step| > 1: skip LLS *)

(* Value range of the basic loop variable h (materialized by the INX
   pre-pass): 0 .. trip-1, when the loop executes at all. *)
let basic_range_of_do (d : do_info) : (var * index_range) option =
  match d.d_basic with
  | None -> None
  | Some h -> (
      let s = d.d_step in
      if s = 1 then Some (h, { min_e = Cint 0; max_e = Expr.fold (Ebin (Sub, d.d_hi, d.d_lo)) })
      else if s = -1 then
        Some (h, { min_e = Cint 0; max_e = Expr.fold (Ebin (Sub, d.d_lo, d.d_hi)) })
      else
        match (d.d_lo, d.d_hi) with
        | Cint lo, Cint hi ->
            let span = if s > 0 then max 0 (hi - lo) else max 0 (lo - hi) in
            Some (h, { min_e = Cint 0; max_e = Cint (span / abs s) })
        | _ -> None)

type classification =
  | Invariant
  | Linear of { coeff : int; range : index_range; index : var }
  | Not_hoistable

(* Loop-limit substitution is only valid when the index variable takes
   exactly the values lo, lo+step, ...: nothing but the latch increment
   may assign it inside the loop. The frontend enforces this for do
   indices (Fortran's rule) and the INX pass for basic variables; this
   re-verifies at the IR level, so hand-built IR cannot subvert it. *)
let index_integrity (f : Ir.Func.t) (l : Loops.loop) (d : do_info) (index : var) : bool =
  List.for_all
    (fun bid ->
      bid = d.d_latch
      || List.for_all
           (fun i ->
             match i with Assign (v, _) -> v.vid <> index.vid | _ -> true)
           (Ir.Func.block f bid).instrs)
    l.Loops.blocks

(* MCM's "simple range expression": one symbolic term, unit
   coefficient (e.g. checks on [i] or [-i], not on [2*i - j]). *)
let simple_lhs (chk : Check.t) =
  match Linexpr.terms (Check.lhs chk) with
  | [] | [ (_, 1) ] | [ (_, -1) ] -> true
  | _ -> false

let classify ~variant (f : Ir.Func.t) (atoms : Ir.Atoms.t) (l : Loops.loop)
    (chk : Check.t) : classification =
  let lhs = Check.lhs chk in
  if variant = Markstein && not (simple_lhs chk) then Not_hoistable
  else if List.for_all (fun (a, _) -> atom_invariant atoms l a) (Linexpr.terms lhs) then
    Invariant
  else
    match (variant, l.Loops.meta) with
    | (Loop_limit | Markstein), Some (Ldo d) -> (
        let try_linear (index, range) =
          let ikey = Atom.key (Ir.Atoms.of_var atoms index) in
          let coeff = Linexpr.coeff_of_key lhs ikey in
          let rest =
            List.filter (fun (a, _) -> Atom.key a <> ikey) (Linexpr.terms lhs)
          in
          if
            coeff <> 0
            && List.for_all (fun (a, _) -> atom_invariant atoms l a) rest
            && index_integrity f l d index
          then Some (Linear { coeff; range; index })
          else None
        in
        let candidates =
          List.filter_map (fun x -> x) [ index_range_of_do d; basic_range_of_do d ]
        in
        match List.find_map try_linear candidates with
        | Some c -> c
        | None -> Not_hoistable)
    | _ -> Not_hoistable

(* Loop-limit substitution: replace the index by its extreme value.
   For [coeff > 0] the check is hardest at the maximum index, for
   [coeff < 0] at the minimum. Returns [None] when the extreme is not
   linearizable. *)
let substitute (atoms : Ir.Atoms.t) (chk : Check.t) ~coeff ~(range : index_range)
    ~(index : var) : Check.t option =
  let limit = if coeff > 0 then range.max_e else range.min_e in
  let llx, lc = Nascent_ir.Canon.linearize atoms limit in
  (* Reject substitutions whose limit expression is itself opaque over
     values that may change: bound temps and constants are always fine. *)
  let ikey = Atom.key (Ir.Atoms.of_var atoms index) in
  let lhs = Check.lhs chk in
  let rest =
    Linexpr.of_terms
      (List.filter (fun (a, _) -> Atom.key a <> ikey) (Linexpr.terms lhs))
  in
  let lhs' = Linexpr.add rest (Linexpr.scale coeff llx) in
  Some (Check.make lhs' (Check.constant chk - (coeff * lc)))

(* --- guards ---------------------------------------------------------- *)

(* Guard expressing "the loop executes at least once". *)
let trip_guard (l : Loops.loop) : expr option =
  match l.Loops.meta with
  | Some (Ldo d) ->
      Some
        (Expr.fold
           (if d.d_step > 0 then Ebin (Le, d.d_lo, d.d_hi) else Ebin (Ge, d.d_lo, d.d_hi)))
  | Some (Lwhile w) ->
      (* The preheader directly precedes the header's test, so the
         condition value is the same at both points. Conditions that
         read arrays are not hoisted: re-evaluating a raw load outside
         its checks could fault where the original would trap. *)
      if Expr.has_load w.w_cond then None else Some w.w_cond
  | None -> None

let conjoin g1 g2 =
  match (g1, g2) with
  | Cbool true, g | g, Cbool true -> g
  | _ -> Expr.fold (Ebin (And, g1, g2))

(* --- the pass -------------------------------------------------------- *)

type candidate = {
  c_bid : int;
  c_instr : instr; (* physical identity used for deletion *)
  c_meta : check_meta;
  c_guard : expr option; (* Some g for Cond_check sites *)
}

let preheader_of (l : Loops.loop) : int option =
  match l.Loops.meta with
  | Some (Ldo d) -> Some d.d_preheader
  | Some (Lwhile w) -> Some w.w_preheader
  | None -> None

let body_entry_of (l : Loops.loop) : int option =
  match l.Loops.meta with
  | Some (Ldo d) -> Some d.d_body_entry
  | Some (Lwhile w) -> Some w.w_body_entry
  | None -> None

(* Is block [b] an articulation node of the loop body: on every path of
   an iteration from [body_entry] to a latch? Tested by removing [b]
   and asking whether any latch is still reachable inside the loop. *)
let articulation (f : Ir.Func.t) (l : Loops.loop) ~body_entry ~latches b =
  b = body_entry
  || latches <> []
     &&
     let succ = (Ir.Func.cfg f).Ir.Func.succ in
     let seen = Array.make (Ir.Func.num_blocks f) false in
     let rec go x =
       if (not seen.(x)) && x <> b && Loops.in_loop l x then begin
         seen.(x) <- true;
         List.iter go succ.(x)
       end
     in
     go body_entry;
     not (List.exists (fun latch -> seen.(latch)) latches)

(* A conditional check equal to (or within-family stronger than) the
   one we are about to insert, with the same guard, already present? *)
let already_covered (pre : block) ~guard ~(chk : Check.t) ~mode =
  let covers (c' : Check.t) = Universe.family_implies mode c' chk in
  List.exists
    (fun i ->
      match (i, guard) with
      | Check m', None -> covers m'.chk
      | Cond_check (g', m'), Some g -> Expr.equal g g' && covers m'.chk
      | Check m', Some _ ->
          (* an unconditional check subsumes any guarded insertion *)
          covers m'.chk
      | _ -> false)
    pre.instrs

(* [ant ()] is the anticipatability of the function as it stands, over
   the context's check table; [idom] and [preds] hold for the whole
   pass. *)
let process_loop (ctx : Checkctx.t) ~variant ~idom ~preds ~ant (st : Checkctx.counts)
    (l : Loops.loop) : bool =
  let f = ctx.Checkctx.func in
  let atoms = f.Ir.Func.atoms in
  let mode = Universe.mode ctx.Checkctx.table in
  match (preheader_of l, body_entry_of l) with
  | None, _ | _, None -> false
  | Some pre_bid, Some body_bid ->
      let ant = ant () in
      let latches =
        List.filter (fun p -> Loops.in_loop l p) preds.(l.Loops.header)
      in
      let ant_at_body = ant.Nascent_analysis.Dataflow.in_.(body_bid) in
      (* candidates: check sites inside the loop *)
      let candidates = ref [] in
      List.iter
        (fun bid ->
          let b = Ir.Func.block f bid in
          List.iter
            (fun i ->
              match i with
              | Check m ->
                  candidates :=
                    { c_bid = bid; c_instr = i; c_meta = m; c_guard = None }
                    :: !candidates
              | Cond_check (g, m) ->
                  candidates :=
                    { c_bid = bid; c_instr = i; c_meta = m; c_guard = Some g }
                    :: !candidates
              | _ -> ())
            b.instrs)
        l.Loops.blocks;
      let eligible (c : candidate) : bool =
        match c.c_guard with
        | None -> (
            match variant with
            | Markstein ->
                (* dominance-style reasoning only: the check must sit on
                   every path through an iteration *)
                articulation f l ~body_entry:body_bid ~latches c.c_bid
            | Invariant_only | Loop_limit ->
                let pool = Universe.pool ctx.Checkctx.table in
                Bitset.mem ant_at_body (Intern.id pool c.c_meta.chk))
        | Some g ->
            (* once-per-iteration and guard stable across the loop *)
            latches <> []
            && List.for_all (fun latch -> Ir.Func.dominates idom c.c_bid latch) latches
            && expr_invariant l g
      in
      let to_delete = ref [] in
      let inserted = ref [] in
      let hoist (c : candidate) =
        let chk = c.c_meta.chk in
        let mk_hoisted () =
          match classify ~variant f atoms l chk with
          | Invariant -> Some (chk, false)
          | Linear { coeff; range; index } -> (
              match substitute atoms chk ~coeff ~range ~index with
              | Some chk' -> Some (chk', true)
              | None -> None)
          | Not_hoistable -> None
        in
        match (trip_guard l, mk_hoisted ()) with
        | None, _ | _, None -> ()
        | Some tg, Some (chk', linear) -> (
            let guard = match c.c_guard with None -> tg | Some g -> conjoin tg g in
            to_delete := c.c_instr :: !to_delete;
            if linear then st.hoisted_linear <- st.hoisted_linear + 1
            else st.hoisted_invariant <- st.hoisted_invariant + 1;
            let meta' = { c.c_meta with chk = chk' } in
            let pre = Ir.Func.block f pre_bid in
            let covered guard =
              already_covered pre ~guard ~chk:chk' ~mode
              || already_covered { pre with instrs = List.rev !inserted } ~guard ~chk:chk' ~mode
            in
            match Expr.fold guard with
            | Cbool false -> () (* loop never runs: body check unreachable *)
            | Cbool true ->
                if not (covered None) then begin
                  inserted := Check meta' :: !inserted;
                  st.plain_inserted <- st.plain_inserted + 1
                end
            | g ->
                if not (covered (Some g)) then begin
                  inserted := Cond_check (g, meta') :: !inserted;
                  st.guards_inserted <- st.guards_inserted + 1
                end)
      in
      List.iter (fun c -> if eligible c then hoist c) (List.rev !candidates);
      (* mutate: delete hoisted sites, append insertions to the preheader *)
      if !to_delete <> [] || !inserted <> [] then begin
        List.iter
          (fun bid ->
            let b = Ir.Func.block f bid in
            b.instrs <- List.filter (fun i -> not (List.memq i !to_delete)) b.instrs)
          l.Loops.blocks;
        let pre = Ir.Func.block f pre_bid in
        pre.instrs <- pre.instrs @ List.rev !inserted;
        true
      end
      else false

let run (ctx : Checkctx.t) ~variant (st : Checkctx.counts) : unit =
  let f = ctx.Checkctx.func in
  (* Loops are processed innermost-first, and each hoist can enable
     hoisting from the enclosing loop, so anticipatability is solved
     again, over the synced check table, after every loop that hoisted
     something. A loop that hoisted nothing left the function as it
     was, so the next loop reuses the solution. Hoisting edits
     instruction lists only, never a terminator, so dominance and
     predecessors are the same for every loop of the pass. *)
  let idom = Ir.Func.idom f in
  let preds = Ir.Func.preds_array f in
  let current = ref None in
  let ant () =
    match !current with
    | Some a -> a
    | None ->
        ignore (Checkctx.universe ctx);
        let a = Analyses.anticipatability ctx in
        current := Some a;
        a
  in
  List.iter
    (fun l -> if process_loop ctx ~variant ~idom ~preds ~ant st l then current := None)
    ctx.Checkctx.loops
