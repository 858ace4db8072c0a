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

   The anticipatability oracle is self-contained (this library sits
   below [Nascent_analysis]) and uses a per-family lattice: a state
   maps each family lhs to the smallest constant [m] generated on
   every path to an exit, so [Check (e <= k)] is anticipated iff the
   state binds [e] to some [m <= k] (within-family implication). This
   is the widest gen relation any implication mode uses, so a program
   valid under a stricter mode is accepted. Blocks in no-exit regions
   anticipate nothing (matching the dataflow solver's pessimistic
   boundary). *)

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
(* Self-contained dominators (Cooper–Harvey–Kennedy over RPO numbers). *)

let dominators (f : Func.t) : int array =
  let n = Func.num_blocks f in
  let rpo = Func.rpo f in
  let rpo_num = Array.make n (-1) in
  List.iteri (fun i b -> rpo_num.(b) <- i) rpo;
  let preds = Func.preds_array f in
  let idom = Array.make n (-1) in
  let entry = f.Func.entry in
  idom.(entry) <- entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> entry then
          match List.filter (fun p -> idom.(p) <> -1) preds.(b) with
          | [] -> ()
          | p0 :: rest ->
              let ni = List.fold_left intersect p0 rest in
              if idom.(b) <> ni then begin
                idom.(b) <- ni;
                changed := true
              end)
      rpo
  done;
  idom

(* Does [a] dominate [b]? (Reflexive; false if either is unreachable.) *)
let dominates (idom : int array) a b =
  if a < 0 || b < 0 || idom.(b) = -1 || idom.(a) = -1 then false
  else
    let rec up b = a = b || (idom.(b) <> b && up idom.(b)) in
    up b

(* ------------------------------------------------------------------ *)
(* Structural rules.                                                   *)

let check_cfg (f : Func.t) add =
  let n = Func.num_blocks f in
  if n = 0 then add Cfg f.Func.fname "function has no blocks"
  else if f.Func.entry < 0 || f.Func.entry >= n then
    add Cfg f.Func.fname (Fmt.str "entry block %d out of range" f.Func.entry)
  else
    for i = 0 to n - 1 do
      let b = Func.block f i in
      if b.bid <> i then
        add Cfg (Fmt.str "block %d" i) (Fmt.str "carries id %d" b.bid);
      List.iter
        (fun s ->
          if s < 0 || s >= n then
            add Cfg
              (Fmt.str "block %d" i)
              (Fmt.str "terminator target %d out of range [0,%d)" s n))
        (Func.succs_of_term b.term)
    done

(* [where] is lazy here and in [check_hoist]: printing an instruction
   would dominate the cost of a clean pass, so a location is formatted
   only when a violation is actually recorded. *)
let check_checks (f : Func.t) add =
  let add rule where what = add rule (Lazy.force where) what in
  let known_vids = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace known_vids v.vid ()) f.Func.vars;
  List.iter
    (function Pscalar v -> Hashtbl.replace known_vids v.vid () | Parr _ -> ())
    f.Func.params;
  let array_rank name =
    let ranked a = if a.aname = name then Some (List.length a.adims) else None in
    match List.find_map ranked f.Func.arrays with
    | Some r -> Some r
    | None ->
        List.find_map
          (function Parr a -> ranked a | Pscalar _ -> None)
          f.Func.params
  in
  let known_var where v =
    if not (Hashtbl.mem known_vids v.vid) then
      add Check_form where (Fmt.str "references undeclared variable %s#%d" v.vname v.vid)
  in
  let check_lhs where (chk : Check.t) =
    let rec canonical prev = function
      | [] -> ()
      | (a, c) :: rest ->
          let k = Atom.key a in
          if c = 0 then add Check_form where "zero coefficient in canonical form";
          if k <= prev then
            add Check_form where "canonical form not strictly key-sorted";
          (match Atoms.payload f.Func.atoms k with
          | None ->
              add Check_form where
                (Fmt.str "atom %s#%d not in the function's atom table" (Atom.name a) k)
          | Some (Atoms.Avar v) -> known_var where v
          | Some (Atoms.Aopaque _) | Some (Atoms.Asynth _) -> ());
          canonical k rest
    in
    canonical min_int (Linexpr.terms (Check.lhs chk))
  in
  let check_meta where (m : check_meta) =
    check_lhs where m.chk;
    if m.src_dim < 0 then
      add Check_form where (Fmt.str "negative source dimension %d" m.src_dim);
    match array_rank m.src_array with
    | Some rank when m.src_dim >= rank ->
        add Check_form where
          (Fmt.str "dimension %d out of range for %s (rank %d)" m.src_dim m.src_array
             rank)
    | _ -> () (* synthetic provenance (e.g. PRE's "<pre>") carries no rank *)
  in
  let reach = Func.reachable f in
  Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then
        List.iter
          (fun i ->
            let where = lazy (Fmt.str "block %d: %a" b.bid Printer.pp_instr i) in
            match i with
            | Check m -> check_meta where m
            | Cond_check (g, m) ->
                check_meta where m;
                if Expr.has_load g then
                  add Check_form where "guard reads memory (must be effect-free)";
                List.iter (known_var where) (Expr.vars_of g)
            | _ -> ())
          b.instrs)
    f

let check_loops (f : Func.t) (idom : int array) add =
  let n = Func.num_blocks f in
  let in_range = List.for_all (fun b -> b >= 0 && b < n) in
  let reach = Func.reachable f in
  let edge_to where ~src ~dst what =
    if not (List.mem dst (Func.succs f src)) then
      add Loop_structure where (Fmt.str "%s: no edge %d -> %d" what src dst)
  in
  let check_shape where ~preheader ~header =
    if preheader = header then
      add Loop_structure where "preheader coincides with header"
    else begin
      edge_to where ~src:preheader ~dst:header "preheader must enter the header";
      if reach.(header) && not (dominates idom preheader header) then
        add Loop_structure where
          (Fmt.str "preheader %d does not dominate header %d" preheader header)
    end
  in
  List.iter
    (fun meta ->
      match meta with
      | Ldo d ->
          let where = Fmt.str "do-loop@%d" d.d_header in
          if not (in_range [ d.d_preheader; d.d_header; d.d_body_entry; d.d_latch; d.d_exit ])
          then add Loop_structure where "loop metadata references out-of-range block"
          else begin
            check_shape where ~preheader:d.d_preheader ~header:d.d_header;
            edge_to where ~src:d.d_latch ~dst:d.d_header "latch must close the loop"
          end
      | Lwhile w ->
          let where = Fmt.str "while-loop@%d" w.w_header in
          if not (in_range [ w.w_preheader; w.w_header; w.w_body_entry; w.w_exit ]) then
            add Loop_structure where "loop metadata references out-of-range block"
          else check_shape where ~preheader:w.w_preheader ~header:w.w_header)
    f.Func.loops

(* ------------------------------------------------------------------ *)
(* Differential rules: compare against a snapshot taken before the
   pass. Passes rebuild instruction lists but preserve the physical
   identity of instructions they do not touch, so [memq] separates the
   pass's insertions from what it merely moved or kept. *)

let instrs_of (f : Func.t) : instr list =
  let acc = ref [] in
  Func.iter_blocks (fun b -> acc := List.rev_append b.instrs !acc) f;
  !acc

let diff ~(before : Func.t) (f : Func.t) =
  let old_instrs = instrs_of before in
  let inserted = ref [] in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun i -> if not (List.memq i old_instrs) then inserted := (b.bid, i) :: !inserted)
        b.instrs)
    f;
  let new_instrs = instrs_of f in
  let removed = List.filter (fun i -> not (List.memq i new_instrs)) old_instrs in
  (List.rev !inserted, removed)

let is_check = function Check _ | Cond_check _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Anticipatability oracle (see the module comment).                   *)

module FMap = Map.Make (struct
  type t = Linexpr.t

  let compare = Linexpr.compare
end)

(* state: family lhs -> smallest generated constant on every path *)
type ant_state = int FMap.t

let kill_keys atoms (i : instr) : int list =
  match i with
  | Assign (v, _) -> Atoms.killed_by_def atoms v
  | Store _ | Call _ -> Atoms.killed_by_store atoms
  | Check _ | Cond_check _ | Trap _ | Print _ -> []

let apply_kills atoms i (st : ant_state) : ant_state =
  match kill_keys atoms i with
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

let ant_solve (f : Func.t) ~is_inserted : ant_state option array * ant_state option array =
  let n = Func.num_blocks f in
  let preds = Func.preds_array f in
  let reaches_exit =
    let r = Array.make n false in
    let rec mark b =
      if not r.(b) then begin
        r.(b) <- true;
        List.iter mark preds.(b)
      end
    in
    Func.iter_blocks (fun b -> if Func.succs_of_term b.term = [] then mark b.bid) f;
    r
  in
  (* None is top; meet is pointwise max over common families *)
  let meet a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some m1, Some m2 ->
        Some
          (FMap.merge
             (fun _ a b ->
               match (a, b) with Some x, Some y -> Some (max x y) | _ -> None)
             m1 m2)
  in
  let state_equal a b =
    match (a, b) with
    | None, None -> true
    | Some m1, Some m2 -> FMap.equal Int.equal m1 m2
    | _ -> false
  in
  let in_ = Array.make n None and out = Array.make n None in
  let order = List.rev (Func.rpo f) in
  let atoms = f.Func.atoms in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun bid ->
        let b = Func.block f bid in
        let succs = Func.succs_of_term b.term in
        let o =
          if succs = [] || not reaches_exit.(bid) then Some FMap.empty
          else List.fold_left (fun acc s -> meet acc in_.(s)) None succs
        in
        out.(bid) <- o;
        let i = Option.map (transfer_block atoms ~is_inserted b.instrs) o in
        if not (state_equal in_.(bid) i) then begin
          in_.(bid) <- i;
          changed := true
        end)
      order
  done;
  (in_, out)

(* ------------------------------------------------------------------ *)
(* Per-pass differential rules.                                        *)

let instr_where bid i = Fmt.str "block %d: inserted %a" bid Printer.pp_instr i

(* Every inserted plain check must be anticipatable at its insertion
   point, counting only checks the pass did not itself insert. *)
let check_insertion_safety (f : Func.t) ~inserted add =
  let ins_instrs = List.map snd inserted in
  let is_inserted i = List.memq i ins_instrs in
  let _, out = ant_solve f ~is_inserted in
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
        let st = ref (Option.value ~default:FMap.empty out.(bid)) in
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
    (fun p -> if dominates idom header p then pull p)
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
    let idom = dominators f in
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
