(* Steps 4 and 5 of the optimizer (paper section 3): eliminate checks
   that are available (hence redundant), then fold compile-time
   checks. *)

module Ir = Nascent_ir
module Bitset = Nascent_support.Bitset
module Check = Nascent_checks.Check
module Universe = Nascent_checks.Universe
module Expr = Nascent_ir.Expr
open Ir.Types

type stats = {
  mutable redundant_deleted : int;
  mutable compile_time_deleted : int;
  mutable compile_time_traps : int;
}

let new_stats () =
  { redundant_deleted = 0; compile_time_deleted = 0; compile_time_traps = 0 }

(* covered_by.(j) = the set of checks whose execution makes j redundant
   (the transpose of the availability generation relation). *)
let covered_by (uni : Universe.t) : Bitset.t array =
  let n = Universe.size uni in
  let cov = Array.init n (fun _ -> Bitset.create n) in
  for i = 0 to n - 1 do
    Bitset.iter (fun j -> Bitset.add cov.(j) i) (Universe.avail_gen uni i)
  done;
  cov

(* Step 4: remove every check instruction whose check is available at
   its own program point. One forward scan per block, seeded with the
   block-entry availability. *)
let redundancy_elimination (env : Analyses.env) (st : stats) : unit =
  let ctx = env.Analyses.ctx in
  let f = ctx.Checkctx.func in
  let avail = Analyses.availability env in
  let cov = covered_by env.Analyses.uni in
  let reach = Ir.Func.reachable f in
  (* Oracle mode only: is the check at index [j] entailed by the
     *conjunction* of the currently available checks? Every check in
     [cur] was performed (and passed) on every path here with no
     intervening kill of its atoms, so the conjunction of their
     constraints holds at this point; if it implies [j]'s constraint,
     executing [j] cannot trap. The single-hypothesis cases are already
     folded into [cov] by the universe's oracle widening — this covers
     genuinely conjunctive facts like [x <= y /\ y <= 5 |- x <= 5]. *)
  let conjunction_implies cur j =
    ctx.Checkctx.oracle
    &&
    let hyps = ref [] in
    Bitset.iter
      (fun i -> hyps := Universe.check env.Analyses.uni i :: !hyps)
      cur;
    Nascent_checks.Oracle.implies ~hyps:!hyps
      (Universe.check env.Analyses.uni j)
  in
  Ir.Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then begin
        let cur = Bitset.copy avail.Nascent_analysis.Dataflow.in_.(b.bid) in
        List.iter
          (fun k -> Bitset.diff_into ~into:cur (Universe.killed_by_key env.Analyses.uni k))
          (ctx.Checkctx.block_entry_kill_keys b.bid);
        let keep =
          List.filter
            (fun i ->
              match i with
              | Check m -> (
                  match Universe.index_of env.Analyses.uni (ctx.Checkctx.site_check m) with
                  | None -> true (* not in universe: leave untouched *)
                  | Some j ->
                      if
                        (not (Bitset.disjoint cur cov.(j)))
                        || conjunction_implies cur j
                      then begin
                        st.redundant_deleted <- st.redundant_deleted + 1;
                        false
                      end
                      else begin
                        Bitset.union_into ~into:cur (Universe.avail_gen env.Analyses.uni j);
                        true
                      end)
              | Cond_check _ -> true (* guarded: generates nothing *)
              | _ ->
                  List.iter
                    (fun k ->
                      Bitset.diff_into ~into:cur
                        (Universe.killed_by_key env.Analyses.uni k))
                    (ctx.Checkctx.instr_kill_keys i);
                  true)
            b.instrs
        in
        b.instrs <- keep
      end)
    f

(* Step 4b, oracle mode only: delete every check provable from the
   {e ambient} facts of its program point — the branch conditions
   holding on every path in, assignment postconditions, and affine loop
   invariants, with check instructions contributing nothing
   ({!Ir.Validate.Facts}). The CIG-based elimination above only sees
   pairwise syntactic implications between checks; this sweep decides
   arbitrary linear consequences (conjunctions across families,
   equalities threaded through assignments), so it reaches checks —
   typically hoisted preheader checks over loop-invariant bounds — the
   paper's machinery cannot.

   Ambient (check-independent) proofs are what keep the deletions
   stable under each other: deleting check A never invalidates the
   proof that justified deleting check B, so the per-compile
   translation validator re-derives every proof on the post-deletion
   function. A [Cond_check] whose check is provable outright is deleted
   too — if its guard is true the check runs and passes, and if false
   the instruction was a no-op either way. *)
let oracle_elimination ~cache (f : Ir.Func.t) (st : stats) : unit =
  let atoms = f.Ir.Func.atoms in
  let entry = Ir.Validate.Facts.ambient_entry ~cache f in
  let reach = Ir.Func.reachable f in
  Ir.Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then begin
        let state = ref (Some entry.(b.bid)) in
        b.instrs <-
          List.filter
            (fun i ->
              let provable m =
                match !state with
                | Some s -> Ir.Validate.Facts.proves ~cache s m.chk
                | None -> true (* dead past an unconditional trap *)
              in
              match i with
              | (Check m | Cond_check (_, m)) when provable m ->
                  st.redundant_deleted <- st.redundant_deleted + 1;
                  false
              | _ ->
                  state := Ir.Validate.Facts.step ~cache atoms !state i;
                  true)
            b.instrs
      end)
    f

(* Step 5: checks whose range expression has no symbolic term are
   decided now; true ones disappear, false ones become TRAP
   instructions reported to the programmer. Conditional checks also
   fold their guard when it is constant. *)
let compile_time_checks (f : Ir.Func.t) (st : stats) : unit =
  (* [orig] is returned whenever the instruction is unchanged so the
     verifier's physical-identity diff sees only genuine rewrites. *)
  let fold_check ~(orig : instr) (m : check_meta) ~(guard : expr option) :
      instr option =
    match Check.compile_time_value m.chk with
    | Some true ->
        st.compile_time_deleted <- st.compile_time_deleted + 1;
        None
    | Some false -> (
        let msg =
          Fmt.str "%s dimension %d %s bound violated: %a" m.src_array m.src_dim
            (match m.kind with Lower -> "lower" | Upper -> "upper")
            Check.pp m.chk
        in
        match guard with
        | None ->
            st.compile_time_traps <- st.compile_time_traps + 1;
            Some (Trap msg)
        | Some g -> (
            match Expr.fold g with
            | Cbool true ->
                st.compile_time_traps <- st.compile_time_traps + 1;
                Some (Trap msg)
            | Cbool false ->
                st.compile_time_deleted <- st.compile_time_deleted + 1;
                None
            | g' -> if Expr.equal g' g then Some orig else Some (Cond_check (g', m))))
    | None -> (
        match guard with
        | None -> Some orig
        | Some g -> (
            match Expr.fold g with
            | Cbool true -> Some (Check m) (* guard statically true: unconditional *)
            | Cbool false ->
                st.compile_time_deleted <- st.compile_time_deleted + 1;
                None
            | g' -> if Expr.equal g' g then Some orig else Some (Cond_check (g', m))))
  in
  Ir.Func.iter_blocks
    (fun b ->
      b.instrs <-
        List.filter_map
          (fun i ->
            match i with
            | Check m -> fold_check ~orig:i m ~guard:None
            | Cond_check (g, m) -> fold_check ~orig:i m ~guard:(Some g)
            | _ -> Some i)
          b.instrs)
    f

(* The standard tail of every scheme: redundancy elimination followed
   by compile-time folding. *)
let run (ctx : Checkctx.t) : stats =
  let st = new_stats () in
  let env = Analyses.make_env ctx in
  redundancy_elimination env st;
  if ctx.Checkctx.oracle then
    oracle_elimination ~cache:(Ir.Validate.Cache.create ()) ctx.Checkctx.func st;
  compile_time_checks ctx.Checkctx.func st;
  st
