(* PRE placement of checks: the safe-earliest and latest-not-isolated
   transformations of Knoop, Rüthing & Steffen ("Lazy Code Motion"),
   adapted to range checks (paper sections 2.1 and 3.3).

   Differences from arithmetic PRE, per the paper:
   - a check defines no value, so there is nothing to rewire — the pass
     only *inserts* checks at the chosen edges; the shared elimination
     pass afterwards deletes everything that became redundant;
   - generation is implication-aware: an occurrence of a strong check
     locally anticipates/computes its weaker family members;
   - safety = down-safety (anticipatability): inserting a check where a
     check at least as strong is anticipatable can only move the trap
     earlier, never invent one.

   Safe-earliest (SE) inserts at the EARLIEST edges; latest-not-isolated
   (LNI) delays insertions as long as profitable (LATER system) —
   pointless for register pressure here (checks produce no value,
   section 3.3) but measured by the paper, so both are implemented.

   Critical edges are split before the edge systems are solved. *)

module Ir = Nascent_ir
module Bitset = Nascent_support.Bitset
module Universe = Nascent_checks.Universe
module Intern = Nascent_checks.Intern
module Dataflow = Nascent_analysis.Dataflow
open Ir.Types

type placement = Safe_earliest | Latest_not_isolated

type stats = { mutable inserted : int }

(* Local predicates per block:
   ANTLOC — check locally anticipatable (performed before any kill);
   TRANSP — block does not kill the check. *)
type local = { antloc : Bitset.t; transp : Bitset.t }

let locals (ctx : Checkctx.t) (b : block) : local =
  let uni = ctx.Checkctx.table in
  let pool = Universe.pool uni in
  let n = Universe.size uni in
  let antloc = Bitset.create n and killed = Bitset.create n in
  let transp = Bitset.full n in
  List.iter
    (fun i ->
      (match i with
      | Check m ->
          Bitset.union_diff_into ~into:antloc
            (Universe.ant_gen uni (Intern.id pool m.chk))
            killed
      | _ -> ());
      (* kills go straight into [killed] (and out of [transp]), one
         atom's set at a time: no set is built per instruction *)
      List.iter
        (fun key ->
          let k = Universe.killed_by_key uni key in
          Bitset.union_into ~into:killed k;
          Bitset.diff_into ~into:transp k)
        (Ir.Atoms.killed_by ctx.Checkctx.func.Ir.Func.atoms i))
    b.instrs;
  { antloc; transp }

(* Insert the checks of [set] on edge (m, n). Because critical edges
   were split, either m has a single successor (append before its
   terminator) or n has a single predecessor (prepend). Within a family
   the strongest check is inserted first, so elimination keeps only it. *)
let insert_on_edge (ctx : Checkctx.t) preds (st : stats) m n (set : Bitset.t) =
  if not (Bitset.is_empty set) then begin
    let f = ctx.Checkctx.func in
    let checks =
      Bitset.elements set
      |> List.map (Intern.check (Universe.pool ctx.Checkctx.table))
      |> List.sort Nascent_checks.Check.compare
    in
    let instrs =
      List.map
        (fun c ->
          Check { chk = c; src_array = "<pre>"; src_dim = 0; kind = Upper })
        checks
    in
    st.inserted <- st.inserted + List.length instrs;
    if m = -1 then begin
      (* virtual entry edge: insert at the top of the entry block *)
      let nb = Ir.Func.block f n in
      nb.instrs <- instrs @ nb.instrs
    end
    else begin
      let mb = Ir.Func.block f m and nb = Ir.Func.block f n in
      if Ir.Func.succs f m = [ n ] then mb.instrs <- mb.instrs @ instrs
      else if List.length preds.(n) = 1 then nb.instrs <- instrs @ nb.instrs
      else
        (* Cannot happen after critical-edge splitting. *)
        invalid_arg "Lazy_motion.insert_on_edge: unsplit critical edge"
    end
  end

let run (ctx : Checkctx.t) ~(placement : placement) : stats =
  let st = { inserted = 0 } in
  let f = ctx.Checkctx.func in
  ignore (Ir.Func.split_critical_edges f);
  (* Splitting added blocks, which leaves the context's loops stale:
     this pass never reads them, and the optimizer refreshes them
     before a pass that does. *)
  let n = Universe.size (Checkctx.universe ctx) in
  let nb = Ir.Func.num_blocks f in
  let loc = Array.init nb (fun bid -> locals ctx (Ir.Func.block f bid)) in
  (* Down-safety (anticipatability) and up-safety (availability); both
     hold present checks only, so every set below does too. *)
  let ant = Analyses.anticipatability ctx in
  let av = Analyses.availability ctx in
  let preds = Ir.Func.preds_array f in
  let entry = f.Ir.Func.entry in
  (* EARLIEST(m,n) = ANTIN(n) ∧ ¬AVOUT(m) ∧ (¬TRANSP(m) ∨ ¬ANTOUT(m));
     m = -1 is the virtual edge into the entry block, where nothing is
     available and nothing can move higher. *)
  let blocked = Bitset.create n in
  let earliest m nd =
    let e = Bitset.copy ant.Dataflow.in_.(nd) in
    if m <> -1 then begin
      Bitset.diff_into ~into:e av.Dataflow.out.(m);
      Bitset.assign ~into:blocked loc.(m).transp;
      Bitset.inter_into ~into:blocked ant.Dataflow.out.(m);
      (* blocked = TRANSP(m) ∧ ANTOUT(m): placement can still move up *)
      Bitset.diff_into ~into:e blocked
    end;
    e
  in
  let edges =
    (-1, entry)
    :: List.concat_map
         (fun m -> List.map (fun nd -> (m, nd)) (Ir.Func.succs f m))
         (Ir.Func.rpo f)
  in
  (match placement with
  | Safe_earliest ->
      List.iter (fun (m, nd) -> insert_on_edge ctx preds st m nd (earliest m nd)) edges
  | Latest_not_isolated ->
      (* LATER system (Knoop et al. 92):
         LATERIN(n) = ∧_{(m,n)} LATER(m,n)   (entry: the virtual edge's EARLIEST)
         LATER(m,n) = EARLIEST(m,n) ∨ (LATERIN(m) ∧ ¬ANTLOC(m))
         INSERT(m,n) = LATER(m,n) ∧ ¬LATERIN(n)
         LATERIN starts from the present checks, as the analyses do. *)
      let laterin = Array.init nb (fun _ -> Bitset.copy ctx.Checkctx.present) in
      let later (m, nd) =
        let l = earliest m nd in
        if m <> -1 then Bitset.union_diff_into ~into:l laterin.(m) loc.(m).antloc;
        l
      in
      let v = Bitset.create n in
      let visit ~sweep:_ nd preds =
        (match preds with
        | [] ->
            (* the entry block's only incoming edge is the virtual one *)
            Bitset.assign ~into:v (earliest (-1) entry)
        | _ ->
            Bitset.fill v;
            List.iter (fun m -> Bitset.inter_into ~into:v (later (m, nd))) preds);
        if Bitset.equal v laterin.(nd) then false
        else begin
          Bitset.assign ~into:laterin.(nd) v;
          true
        end
      in
      ignore (Ir.Fixpoint.iterate f Ir.Fixpoint.Forward visit);
      List.iter
        (fun (m, nd) ->
          let ins = later (m, nd) in
          Bitset.diff_into ~into:ins laterin.(nd);
          insert_on_edge ctx preds st m nd ins)
        edges);
  st
