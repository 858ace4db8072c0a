(* IR invariant verifier.

   Every optimization scheme mutates the CFG, the check instructions,
   or both; this module is the correctness oracle that runs between
   optimizer steps (behind [Config.verify]) and after lowering. It
   checks four invariant classes:

   - [Cfg]: the block vector is self-consistent — ids match positions,
     terminator targets are in range, the entry block exists. (The
     pred/succ relation is derived from terminators, so its symmetry
     is structural once targets are in range.)
   - [Check_form]: every [Check]/[Cond_check] carries a canonical
     linear form whose atoms resolve in the function's atom table to
     live variables, whose source dimension is within the declared
     rank, and whose guard (if any) is an effect-free expression over
     known variables.
   - [Loop_structure]: lowering-time loop metadata stays valid — the
     recorded preheader still has an edge to, and dominates, its
     header; the latch still closes the loop.
   - [Insertion]: differential rules keyed by the pass that just ran.
     In particular, a check inserted by partial redundancy elimination
     must be anticipatable at its insertion point (the paper's safety
     rule, DESIGN.md section 5.4): no inserted check may sit above a
     definition of one of its symbols unless the check is re-generated
     before that definition on every path to an exit.

   The anticipatability oracle is a backward {!Fixpoint} problem over
   a per-family lattice: a state maps each family lhs to the smallest
   constant [m] generated on every path to an exit, so
   [Check (e <= k)] is anticipated iff the state binds [e] to some
   [m <= k] (within-family implication). This is the widest gen
   relation any implication mode uses, so a program valid under a
   stricter mode is accepted. Blocks in no-exit regions
   anticipate nothing: the engine's backward boundary. *)

module Check = Nascent_checks.Check
module Linexpr = Nascent_checks.Linexpr
module Atom = Nascent_checks.Atom
open Types

type pass =
  | Lowered  (** structural rules only; no differential check *)
  | Rewrite  (** INX induction rewriting: check count preserved *)
  | Strengthen  (** in-place same-family strengthening *)
  | Code_motion  (** PRE insertion: inserted checks must be anticipatable *)
  | Hoist  (** preheader insertion: only checks/guards, only in preheaders *)
  | Elimination  (** redundancy elimination: deletions only *)
  | Fold  (** compile-time folding: deletions, traps, guard folding *)

let pass_name = function
  | Lowered -> "lowered"
  | Rewrite -> "inx-rewrite"
  | Strengthen -> "strengthen"
  | Code_motion -> "pre-insert"
  | Hoist -> "hoist"
  | Elimination -> "eliminate"
  | Fold -> "fold"

type rule = Cfg | Check_form | Loop_structure | Insertion

let rule_name = function
  | Cfg -> "cfg"
  | Check_form -> "check-form"
  | Loop_structure -> "loop-structure"
  | Insertion -> "insertion"

type violation = { rule : rule; where : string; what : string }

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s: %s" (rule_name v.rule) v.where v.what

exception Invalid_ir of string

(* ------------------------------------------------------------------ *)
(* Structural rules. A clean run allocates next to nothing: locations
   and messages are formatted only when a violation is recorded, so
   the rules below pass the parts of a location ([block_at],
   [instr_at], [loop_at]) instead of a string.                         *)

let block_at i = Fmt.str "block %d" i

let instr_at bid i = Fmt.str "block %d: %a" bid Printer.pp_instr i

let loop_at meta =
  match meta with
  | Ldo d -> Fmt.str "do-loop@%d" d.d_header
  | Lwhile w -> Fmt.str "while-loop@%d" w.w_header

let check_cfg (f : Func.t) add =
  let n = Func.num_blocks f in
  if n = 0 then add Cfg f.Func.fname "function has no blocks"
  else if f.Func.entry < 0 || f.Func.entry >= n then
    add Cfg f.Func.fname (Fmt.str "entry block %d out of range" f.Func.entry)
  else
    let target i s =
      if s < 0 || s >= n then
        add Cfg (block_at i) (Fmt.str "terminator target %d out of range [0,%d)" s n)
    in
    for i = 0 to n - 1 do
      let b = Func.block f i in
      if b.bid <> i then add Cfg (block_at i) (Fmt.str "carries id %d" b.bid);
      match b.term with
      | Goto l -> target i l
      | Branch (_, x, y) ->
          target i x;
          if y <> x then target i y
      | Ret -> ()
    done

(* Rank of the array [name], declared locally or as a parameter; -1 if
   neither. *)
let rec param_rank name = function
  | [] -> -1
  | Parr a :: rest -> if a.aname = name then List.length a.adims else param_rank name rest
  | Pscalar _ :: rest -> param_rank name rest

let rec array_rank name (f : Func.t) = function
  | [] -> param_rank name f.Func.params
  | a :: rest -> if a.aname = name then List.length a.adims else array_rank name f rest

let check_checks (f : Func.t) add =
  (* declared vids: every variable and scalar parameter *)
  let size =
    List.fold_left
      (fun m p -> match p with Pscalar v -> max m (v.vid + 1) | Parr _ -> m)
      (List.fold_left (fun m v -> max m (v.vid + 1)) f.Func.next_vid f.Func.vars)
      f.Func.params
  in
  let known = Array.make size false in
  List.iter (fun v -> if v.vid >= 0 then known.(v.vid) <- true) f.Func.vars;
  List.iter
    (function Pscalar v when v.vid >= 0 -> known.(v.vid) <- true | _ -> ())
    f.Func.params;
  let add_at rule bid i what = add rule (instr_at bid i) what in
  let known_var bid i v =
    if v.vid < 0 || v.vid >= size || not known.(v.vid) then
      add_at Check_form bid i (Fmt.str "references undeclared variable %s#%d" v.vname v.vid)
  in
  let rec canonical bid i prev = function
    | [] -> ()
    | (a, c) :: rest ->
        let k = Atom.key a in
        if c = 0 then add_at Check_form bid i "zero coefficient in canonical form";
        if k <= prev then add_at Check_form bid i "canonical form not strictly key-sorted";
        (match Atoms.payload_exn f.Func.atoms k with
        | Atoms.Avar v -> known_var bid i v
        | Atoms.Aopaque _ -> ()
        | exception Invalid_argument _ ->
            add_at Check_form bid i
              (Fmt.str "atom %s#%d not in the function's atom table" (Atom.name a) k));
        canonical bid i k rest
  in
  let check_meta bid i (m : check_meta) =
    canonical bid i min_int (Linexpr.terms (Check.lhs m.chk));
    if m.src_dim < 0 then
      add_at Check_form bid i (Fmt.str "negative source dimension %d" m.src_dim);
    (* synthetic provenance (e.g. PRE's "<pre>") carries no rank *)
    let rank = array_rank m.src_array f f.Func.arrays in
    if rank >= 0 && m.src_dim >= rank then
      add_at Check_form bid i
        (Fmt.str "dimension %d out of range for %s (rank %d)" m.src_dim m.src_array rank)
  in
  let rec instrs bid = function
    | [] -> ()
    | i :: rest ->
        (match i with
        | Check m -> check_meta bid i m
        | Cond_check (g, m) ->
            check_meta bid i m;
            if Expr.has_load g then
              add_at Check_form bid i "guard reads memory (must be effect-free)";
            List.iter (known_var bid i) (Expr.vars_of g)
        | _ -> ());
        instrs bid rest
  in
  let reach = Func.reachable f in
  for bid = 0 to Func.num_blocks f - 1 do
    if reach.(bid) then instrs bid (Func.block f bid).instrs
  done

let has_edge (f : Func.t) ~src ~dst =
  match (Func.block f src).term with
  | Goto l -> l = dst
  | Branch (_, x, y) -> x = dst || y = dst
  | Ret -> false

let check_loops (f : Func.t) (idom : int array) add =
  let n = Func.num_blocks f in
  let in_range b = b >= 0 && b < n in
  let reach = Func.reachable f in
  let edge_to meta ~src ~dst what =
    if not (has_edge f ~src ~dst) then
      add Loop_structure (loop_at meta) (Fmt.str "%s: no edge %d -> %d" what src dst)
  in
  let check_shape meta ~preheader ~header =
    if preheader = header then
      add Loop_structure (loop_at meta) "preheader coincides with header"
    else begin
      edge_to meta ~src:preheader ~dst:header "preheader must enter the header";
      if reach.(header) && not (Func.dominates idom preheader header) then
        add Loop_structure (loop_at meta)
          (Fmt.str "preheader %d does not dominate header %d" preheader header)
    end
  in
  let out_of_range meta =
    add Loop_structure (loop_at meta) "loop metadata references out-of-range block"
  in
  List.iter
    (fun meta ->
      match meta with
      | Ldo d ->
          if
            not
              (in_range d.d_preheader && in_range d.d_header && in_range d.d_body_entry
             && in_range d.d_latch && in_range d.d_exit)
          then out_of_range meta
          else begin
            check_shape meta ~preheader:d.d_preheader ~header:d.d_header;
            edge_to meta ~src:d.d_latch ~dst:d.d_header "latch must close the loop"
          end
      | Lwhile w ->
          if
            not
              (in_range w.w_preheader && in_range w.w_header && in_range w.w_body_entry
             && in_range w.w_exit)
          then out_of_range meta
          else check_shape meta ~preheader:w.w_preheader ~header:w.w_header)
    f.Func.loops

(* ------------------------------------------------------------------ *)
(* Differential rules: compare against a snapshot taken before the
   pass. Passes rebuild instruction lists but preserve the physical
   identity of instructions they do not touch, so [memq] separates the
   pass's insertions from what it kept in its block. *)

let diff ~(before : Func.t) (f : Func.t) =
  let nb = Func.num_blocks before and n = Func.num_blocks f in
  (* A block whose list is physically the snapshot's was not touched:
     none of its instructions is new, none of the snapshot's is gone. *)
  let untouched k =
    k < nb && k < n && (Func.block f k).instrs == (Func.block before k).instrs
  in
  (* Whether [i], found in block [k] of the other function, is in block
     [k] of [g]: an instruction moved to another block counts as removed
     from one and inserted into the other. *)
  let occurs g ng i k = k < ng && List.memq i (Func.block g k).instrs in
  let inserted = ref [] and removed = ref [] in
  for k = 0 to n - 1 do
    if not (untouched k) then
      List.iter
        (fun i -> if not (occurs before nb i k) then inserted := (k, i) :: !inserted)
        (Func.block f k).instrs
  done;
  for k = 0 to nb - 1 do
    if not (untouched k) then
      List.iter (fun i -> if not (occurs f n i k) then removed := i :: !removed)
        (Func.block before k).instrs
  done;
  (List.rev !inserted, !removed)

let is_check = function Check _ | Cond_check _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Anticipatability oracle (see the module comment).                   *)

module FMap = Map.Make (struct
  type t = Linexpr.t

  let compare = Linexpr.compare
end)

(* state: family lhs -> smallest generated constant on every path *)
type ant_state = int FMap.t

let apply_kills atoms i (st : ant_state) : ant_state =
  match Atoms.killed_by atoms i with
  | [] -> st
  | keys ->
      FMap.filter
        (fun lhs _ -> not (List.exists (fun k -> Linexpr.mentions_key lhs k) keys))
        st

let gen_check (chk : Check.t) (st : ant_state) : ant_state =
  FMap.update (Check.lhs chk)
    (function
      | None -> Some (Check.constant chk)
      | Some m -> Some (min m (Check.constant chk)))
    st

(* Backward transfer over a whole block; [is_inserted] gens are
   excluded so an inserted check cannot justify itself. Conditional
   checks generate nothing (they may not execute). *)
let transfer_block atoms ~is_inserted instrs (out_state : ant_state) : ant_state =
  List.fold_left
    (fun st i ->
      let st =
        match i with
        | Check m when not (is_inserted i) -> gen_check m.chk st
        | _ -> st
      in
      apply_kills atoms i st)
    out_state (List.rev instrs)

(* Block-end states of the backward must-problem: the meet is the
   pointwise max over common families; no live successor is
   [Unreachable], the identity of the meet. *)
let ant_solve (f : Func.t) ~is_inserted : ant_state Fixpoint.fact array =
  let atoms = f.Func.atoms in
  let meet =
    FMap.merge (fun _ a b ->
        match (a, b) with Some x, Some y -> Some (max x y) | _ -> None)
  in
  let problem =
    {
      Fixpoint.direction = Backward;
      boundary = Reached FMap.empty;
      join =
        (fun ~sweep:_ ~prev:_ _ -> function
          | [] -> Unreachable
          | (_, s0) :: rest -> Reached (List.fold_left (fun acc (_, s) -> meet acc s) s0 rest));
      transfer =
        (fun b st -> Reached (transfer_block atoms ~is_inserted (Func.block f b).instrs st));
      equal = FMap.equal Int.equal;
    }
  in
  (Fixpoint.solve f problem).flow_in

(* ------------------------------------------------------------------ *)
(* Per-pass differential rules.                                        *)

let instr_where bid i = Fmt.str "block %d: inserted %a" bid Printer.pp_instr i

(* Every inserted plain check must be anticipatable at its insertion
   point, counting only checks the pass did not itself insert. *)
let check_insertion_safety (f : Func.t) ~inserted add =
  let ins_instrs = List.map snd inserted in
  let is_inserted i = List.memq i ins_instrs in
  let out = ant_solve f ~is_inserted in
  let reach = Func.reachable f in
  let by_block = Hashtbl.create 8 in
  List.iter
    (fun (bid, i) ->
      Hashtbl.replace by_block bid (i :: (Option.value ~default:[] (Hashtbl.find_opt by_block bid))))
    inserted;
  Hashtbl.iter
    (fun bid _ ->
      if reach.(bid) then begin
        let b = Func.block f bid in
        let atoms = f.Func.atoms in
        let st =
          ref (match out.(bid) with Fixpoint.Reached s -> s | Unreachable -> FMap.empty)
        in
        List.iter
          (fun i ->
            (match i with
            | Check m when is_inserted i -> (
                let ok =
                  match FMap.find_opt (Check.lhs m.chk) !st with
                  | Some bound -> bound <= Check.constant m.chk
                  | None -> false
                in
                if not ok then
                  add Insertion (instr_where bid i)
                    "check is not anticipatable at its insertion point (may sit \
                     above a definition of one of its symbols, or trap on a path \
                     that did not)")
            | Check m -> st := gen_check m.chk !st
            | _ -> ());
            st := apply_kills atoms i !st)
          (List.rev b.instrs)
      end)
    by_block

(* Natural loop of [header]: header plus the backward closure of its
   dominated back-edge sources. *)
let natural_loop (f : Func.t) (idom : int array) (preds : int list array) header =
  let n = Func.num_blocks f in
  let inloop = Array.make n false in
  inloop.(header) <- true;
  let rec pull b =
    if not inloop.(b) then begin
      inloop.(b) <- true;
      List.iter pull preds.(b)
    end
  in
  List.iter
    (fun p -> if Func.dominates idom header p then pull p)
    preds.(header);
  inloop

let scalars_defined_in (f : Func.t) (inloop : bool array) =
  let defined = Hashtbl.create 16 in
  Func.iter_blocks
    (fun b ->
      if inloop.(b.bid) then
        List.iter
          (function Assign (v, _) -> Hashtbl.replace defined v.vid () | _ -> ())
          b.instrs)
    f;
  defined

let check_hoist (f : Func.t) (idom : int array) ~inserted ~removed add =
  let add rule where what = add rule (Lazy.force where) what in
  let preds = Func.preds_array f in
  let preheaders = Hashtbl.create 4 in
  List.iter
    (fun meta ->
      let pre, header =
        match meta with
        | Ldo d -> (d.d_preheader, d.d_header)
        | Lwhile w -> (w.w_preheader, w.w_header)
      in
      Hashtbl.replace preheaders pre header)
    f.Func.loops;
  let invariant_cache = Hashtbl.create 4 in
  let defined_for header =
    match Hashtbl.find_opt invariant_cache header with
    | Some d -> d
    | None ->
        let d = scalars_defined_in f (natural_loop f idom preds header) in
        Hashtbl.replace invariant_cache header d;
        d
  in
  let check_invariant where defined (v : var) =
    if Hashtbl.mem defined v.vid then
      add Insertion where
        (Fmt.str "mentions %s#%d, defined inside the loop it was hoisted out of"
           v.vname v.vid)
  in
  let lhs_vars (chk : Check.t) =
    List.concat_map
      (fun a ->
        match Atoms.payload f.Func.atoms (Atom.key a) with
        | Some (Atoms.Avar v) -> [ v ]
        | Some (Atoms.Aopaque e) -> Expr.vars_of e
        | _ -> [])
      (Linexpr.atoms (Check.lhs chk))
  in
  List.iter
    (fun (bid, i) ->
      let where = lazy (instr_where bid i) in
      match Hashtbl.find_opt preheaders bid with
      | None ->
          add Insertion where "hoisting pass inserted outside a loop preheader"
      | Some header -> (
          let defined = defined_for header in
          match i with
          | Check m -> List.iter (check_invariant where defined) (lhs_vars m.chk)
          | Cond_check (_, m) ->
              (* The guard may mention loop-variant variables: a
                 while-loop's guard is a copy of the loop condition,
                 evaluated in the preheader where it equals the
                 first-iteration test. Only the check itself must be
                 invariant. *)
              List.iter (check_invariant where defined) (lhs_vars m.chk)
          | _ -> add Insertion where "hoisting pass inserted a non-check instruction"))
    inserted;
  List.iter
    (fun i ->
      match i with
      | Check _ -> ()
      | i ->
          add Insertion
            (lazy (Fmt.str "removed %a" Printer.pp_instr i))
            "hoisting pass removed a non-check instruction")
    removed

let check_diff (f : Func.t) (idom : int array) ~(before : Func.t) ~pass add =
  let inserted, removed = diff ~before f in
  let counts g = snd (Func.static_counts g) in
  let require_count_preserved () =
    let cb = counts before and ca = counts f in
    if cb <> ca then
      add Insertion f.Func.fname
        (Fmt.str "%s must preserve the check count (%d -> %d)" (pass_name pass) cb ca)
  in
  let require_removed_checks () =
    List.iter
      (fun i ->
        if not (is_check i) then
          add Insertion
            (Fmt.str "removed %a" Printer.pp_instr i)
            (Fmt.str "%s removed a non-check instruction" (pass_name pass)))
      removed
  in
  match pass with
  | Lowered -> ()
  | Rewrite ->
      require_count_preserved ();
      List.iter
        (fun (bid, i) ->
          match i with
          | Check _ | Assign _ -> () (* rewritten checks + materialized basics *)
          | _ ->
              add Insertion (instr_where bid i)
                "induction rewriting may only rewrite checks and materialize basics")
        inserted
  | Strengthen ->
      require_count_preserved ();
      List.iter
        (fun (bid, i) ->
          match i with
          | Check m ->
              let justified =
                List.exists
                  (fun r ->
                    match r with
                    | Check r ->
                        Linexpr.equal (Check.lhs r.chk) (Check.lhs m.chk)
                        && Check.constant m.chk <= Check.constant r.chk
                    | _ -> false)
                  removed
              in
              if not justified then
                add Insertion (instr_where bid i)
                  "strengthened check has no same-family original it implies"
          | _ ->
              add Insertion (instr_where bid i)
                "strengthening may only rewrite check instructions")
        inserted
  | Code_motion ->
      List.iter
        (fun (bid, i) ->
          if not (match i with Check _ -> true | _ -> false) then
            add Insertion (instr_where bid i)
              "code motion may only insert plain check instructions")
        inserted;
      check_insertion_safety f ~inserted add
  | Hoist -> check_hoist f idom ~inserted ~removed add
  | Elimination ->
      require_removed_checks ();
      List.iter
        (fun (bid, i) ->
          add Insertion (instr_where bid i) "redundancy elimination may only delete")
        inserted
  | Fold ->
      require_removed_checks ();
      List.iter
        (fun (bid, i) ->
          let matches_removed_cond m =
            List.exists
              (function
                | Cond_check (_, r) -> Check.equal r.chk m.chk
                | _ -> false)
              removed
          in
          match i with
          | Trap _ -> () (* compile-time-false check *)
          | Check m | Cond_check (_, m) ->
              if not (matches_removed_cond m) then
                add Insertion (instr_where bid i)
                  "folding may only simplify an existing conditional check"
          | _ ->
              add Insertion (instr_where bid i)
                "folding may only delete, trap, or simplify guards")
        inserted

(* ------------------------------------------------------------------ *)

let func ?(pass = Lowered) ?before (f : Func.t) : violation list =
  let vs = ref [] in
  let add rule where what = vs := { rule; where; what } :: !vs in
  check_cfg f add;
  (* A broken CFG makes preds/dominators meaningless; report it alone. *)
  if !vs <> [] then List.rev !vs
  else begin
    let idom = Func.idom f in
    check_checks f add;
    check_loops f idom add;
    (match before with
    | None -> ()
    | Some before -> check_diff f idom ~before ~pass add);
    List.rev !vs
  end

let func_exn ?(pass = Lowered) ?before (f : Func.t) : unit =
  match func ~pass ?before f with
  | [] -> ()
  | vs ->
      raise
        (Invalid_ir
           (Fmt.str "@[<v>IR verification failed: %s after %s (%d violation%s)@,%a@]"
              f.Func.fname (pass_name pass) (List.length vs)
              (if List.length vs = 1 then "" else "s")
              (Fmt.list pp_violation) vs))

let program ?pass (p : Program.t) : violation list =
  List.concat_map
    (fun f ->
      List.map
        (fun v -> { v with where = Fmt.str "%s: %s" f.Func.fname v.where })
        (func ?pass f))
    (Program.funcs_sorted p)
