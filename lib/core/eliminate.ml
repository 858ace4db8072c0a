(* Steps 4 and 5 of the optimizer (paper section 3): eliminate checks
   that are available (hence redundant), then fold compile-time
   checks. *)

module Ir = Nascent_ir
module Bitset = Nascent_support.Bitset
module Check = Nascent_checks.Check
module Universe = Nascent_checks.Universe
module Intern = Nascent_checks.Intern
module Expr = Nascent_ir.Expr
open Ir.Types

type stats = {
  mutable redundant_deleted : int;
  mutable compile_time_deleted : int;
  mutable compile_time_traps : int;
}

let new_stats () =
  { redundant_deleted = 0; compile_time_deleted = 0; compile_time_traps = 0 }

(* Step 4: remove every check instruction whose check is available at
   its own program point. One forward scan per block, seeded with the
   block-entry availability; [cur] holds present checks only, as the
   analysis does, so a check gone from the function never covers one. *)
let redundancy_elimination (ctx : Checkctx.t) (st : stats) : unit =
  let f = ctx.Checkctx.func in
  let uni = Checkctx.universe ctx in
  let pool = Universe.pool uni in
  let avail = Analyses.availability ctx in
  let reach = Ir.Func.reachable f in
  (* Oracle mode only: is the check [j] entailed by the *conjunction*
     of the currently available checks? Every check in [cur] was
     performed (and passed) on every path here with no intervening kill
     of its atoms, so the conjunction of their constraints holds at
     this point; if it implies [j]'s constraint, executing [j] cannot
     trap. The single-hypothesis cases are already in the table's
     [covered_by] by its oracle widening — this covers genuinely
     conjunctive facts like [x <= y /\ y <= 5 |- x <= 5]. Ids carry no
     order, and the oracle's column pick breaks ties by the order of
     its hypotheses, so they come in the function's order as the pass
     found it, last first: [rank] is each check's first position. *)
  let rank = Array.make (if Universe.oracle uni then Universe.size uni else 0) (-1) in
  if Universe.oracle uni then
    List.iteri
      (fun k m ->
        let i = Intern.id pool m.chk in
        if rank.(i) < 0 then rank.(i) <- k)
      (Ir.Func.all_check_metas f);
  let conjunction_implies cur j =
    Universe.oracle uni
    &&
    let hyps =
      List.map (Intern.check pool)
        (List.sort (fun a b -> Int.compare rank.(b) rank.(a)) (Bitset.elements cur))
    in
    Nascent_checks.Oracle.implies ~cache:(Intern.oracle pool) ~hyps (Intern.check pool j)
  in
  Ir.Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then begin
        let cur = Bitset.copy avail.Nascent_analysis.Dataflow.in_.(b.bid) in
        let keep =
          List.filter
            (fun i ->
              match i with
              | Check m ->
                  let j = Intern.id pool m.chk in
                  if
                    (not (Bitset.disjoint cur (Universe.covered_by uni j)))
                    || conjunction_implies cur j
                  then begin
                    st.redundant_deleted <- st.redundant_deleted + 1;
                    false
                  end
                  else begin
                    Bitset.union_into ~into:cur (Universe.avail_gen uni j);
                    Bitset.inter_into ~into:cur ctx.Checkctx.present;
                    true
                  end
              | Cond_check _ -> true (* guarded: generates nothing *)
              | _ ->
                  List.iter
                    (fun k -> Bitset.diff_into ~into:cur (Universe.killed_by_key uni k))
                    (Ir.Atoms.killed_by f.Ir.Func.atoms i);
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
   ({!Ir.Validate.Facts}). The elimination above only sees pairwise
   implications between checks; this sweep decides arbitrary linear
   consequences (conjunctions across families, equalities threaded
   through assignments), so it reaches checks —
   typically hoisted preheader checks over loop-invariant bounds — the
   paper's machinery cannot.

   Ambient (check-independent) proofs are what keep the deletions
   stable under each other: deleting check A never invalidates the
   proof that justified deleting check B, so the per-compile
   translation validator re-derives every proof on the post-deletion
   function. A [Cond_check] whose check is provable outright is deleted
   too — if its guard is true the check runs and passes, and if false
   the instruction was a no-op either way. The block-entry facts solved
   are returned: they are the certificate's hint. *)
let oracle_elimination ~pool (f : Ir.Func.t) (st : stats) : Ir.Validate.Facts.state array =
  let atoms = f.Ir.Func.atoms in
  let entry = Ir.Validate.Facts.ambient_entry ~pool f in
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
                | Some s -> Ir.Validate.Facts.proves ~pool s m.chk
                | None -> true (* dead past an unconditional trap *)
              in
              match i with
              | (Check m | Cond_check (_, m)) when provable m ->
                  st.redundant_deleted <- st.redundant_deleted + 1;
                  false
              | _ ->
                  state := Ir.Validate.Facts.step ~pool atoms !state i;
                  true)
            b.instrs
      end)
    f;
  entry

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
