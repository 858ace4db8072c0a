(* INX pre-pass (paper section 2.3): rewrite each check's canonical
   form into *induction-expression* form.

   For every check instruction, each program-variable term of its range
   expression is resolved by the SSA-based induction analysis into
       Σ coeff * h_L  +  stable leaves  +  constant
   where the h_L are the basic variables (0, 1, 2, ... per iteration)
   of the loops enclosing the site and every leaf is a definition whose
   variable still holds that value at the check site. If all terms
   resolve, the check is replaced by the equivalent
   induction-expression check; each needed h_L is *materialized* as a
   real variable (h = 0 in the preheader, h = h + 1 in each latch) so
   the rewritten check remains executable and the ordinary kill rules
   apply to it.

   Effects the paper measures:
   - values assigned inside a loop from invariant operands (k = n + 1)
     become loop-invariant checks that LI can hoist — the paper's trfd
     case, where "induction variable analysis could detect more loop
     invariant checks";
   - general linear recurrences (k = k + m with m invariant-constant)
     become linear in h, so LLS can hoist them via the trip count even
     though k is not the do index;
   - checks on different variables with the same induction expression
     fall into one family, enlarging equivalence classes — crucially,
     a variable linear in an *outer* loop resolves to the same form at
     every nesting depth, and checks outside all loops still resolve
     their invariant operands (bound temps), so families never split
     between rewritten and unrewritten sites.

   Basic variables are only materialized for counted (do) loops, where
   the trip count gives LLS a substitution range; a check needing the
   basic variable of a while loop is left unrewritten. *)

module Ir = Nascent_ir
module Check = Nascent_checks.Check
module Linexpr = Nascent_checks.Linexpr
module Atom = Nascent_checks.Atom
module Loops = Nascent_analysis.Loops
module Ssa = Nascent_analysis.Ssa
module Induction = Nascent_analysis.Induction
open Ir.Types

(* Rewrite the terms of [chk] at a site with environment [env] enclosed
   by [loops] (innermost first). [h_atom_for] yields the atom of the
   materialized basic variable of the loop with the given header, or
   None when that loop cannot have one. *)
let rewrite_check (f : Ir.Func.t) (ssa : Ssa.t) (loops : Loops.loop list)
    ~(env : int array) (chk : Check.t) ~(h_atom_for : int -> Atom.t option) :
    Check.t option =
  let atoms = f.Ir.Func.atoms in
  let exception Fail in
  try
    let terms = ref [] in
    let const = ref 0 in
    let changed = ref false in
    List.iter
      (fun (a, c) ->
        match Ir.Atoms.payload atoms (Atom.key a) with
        | Some (Ir.Atoms.Avar v) -> (
            match Induction.form_of_var ssa loops ~site_env:env v with
            | None -> raise Fail
            | Some form ->
                if not (Induction.is_identity_leaf env.(v.vid) form) then changed := true;
                const := !const + (c * form.Induction.const);
                List.iter
                  (fun (leaf, lc) ->
                    match leaf with
                    | Induction.Ldef d ->
                        let lv = Ssa.var_of_def ssa d in
                        terms := (Ir.Atoms.of_var atoms lv, c * lc) :: !terms
                    | Induction.Lbasic header -> (
                        match h_atom_for header with
                        | Some h -> terms := (h, c * lc) :: !terms
                        | None -> raise Fail))
                  form.Induction.leaves)
        | Some (Ir.Atoms.Aopaque _) ->
            terms := (a, c) :: !terms
        | None -> raise Fail)
      (Linexpr.terms (Check.lhs chk));
    if not !changed then None
    else Some (Check.make (Linexpr.of_terms !terms) (Check.constant chk - !const))
  with Fail -> None

(* Returns the function's loops, materialized assignments included. *)
let run (f : Ir.Func.t) : Loops.loop list =
  let ssa = Ssa.compute f in
  let loops = Loops.compute f in
  let preds = Ir.Func.preds_array f in
  (* basic variables, materialized lazily per loop header *)
  let h_vars : (int, var) Hashtbl.t = Hashtbl.create 4 in
  let loop_by_header header = List.find_opt (fun l -> l.Loops.header = header) loops in
  let h_atom_for header : Atom.t option =
    match loop_by_header header with
    | Some ({ Loops.meta = Some (Ldo d); _ } as _l) ->
        let h =
          match Hashtbl.find_opt h_vars header with
          | Some h -> h
          | None ->
              let h =
                Ir.Func.fresh_var f ~name:(Printf.sprintf "h$%d" header) ~ty:Int
              in
              Hashtbl.replace h_vars header h;
              d.d_basic <- Some h;
              h
        in
        Some (Ir.Atoms.of_var f.Ir.Func.atoms h)
    | _ -> None
  in
  let reach = Ir.Func.reachable f in
  Ir.Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then begin
        (* loops enclosing this block, innermost first (the loop list
           is innermost-first already) *)
        let enclosing = List.filter (fun l -> Loops.in_loop l b.bid) loops in
        b.instrs <-
          List.mapi
            (fun idx (i : instr) ->
              match i with
              | Check m -> (
                  match Ssa.snapshot ssa ~bid:b.bid ~idx with
                  | None -> i
                  | Some env -> (
                      match rewrite_check f ssa enclosing ~env m.chk ~h_atom_for with
                      | Some chk' when not (Check.equal chk' m.chk) ->
                          Check { m with chk = chk' }
                      | _ -> i))
              | _ -> i)
            b.instrs
      end)
    f;
  (* materialize the basic variables; every loop around an assignment
     now defines [h] *)
  let assign h (b : block) e =
    b.instrs <- b.instrs @ [ Assign (h, e) ];
    List.iter
      (fun l -> if Loops.in_loop l b.bid then Hashtbl.replace l.Loops.defined_vids h.vid ())
      loops
  in
  Hashtbl.iter
    (fun header h ->
      match loop_by_header header with
      | Some ({ Loops.meta = Some (Ldo d); _ } as l) ->
          assign h (Ir.Func.block f d.d_preheader) (Cint 0);
          List.iter
            (fun latch ->
              if Loops.in_loop l latch then
                assign h (Ir.Func.block f latch) (Ebin (Add, Evar h, Cint 1)))
            preds.(header)
      | _ -> ())
    h_vars;
  loops
