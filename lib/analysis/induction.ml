(* SSA-based induction variable analysis (paper section 2.3, after
   Gerlek/Stoltz/Wolfe).

   Every natural loop has a *basic loop variable* h taking values
   0, 1, 2, ... per iteration. A definition inside the loop is
   classified against h:

   - [Inv]        — the value does not change across iterations;
   - [Linear]     — value = init + step * h, constant integer step;
   - [Polynomial] — a recurrence whose increment is itself linear
                    (Figure 2's  k*(k+1)/2  shape);
   - [Unknown]    — anything else.

   [linear_form] additionally resolves a definition (or a whole
   expression at a site) into the canonical *induction expression*
     sum of coeff * h_L (one per enclosing loop L)
     + sum of leaf definitions + constant
   validated against a site environment, which is exactly what the INX
   check-rewriting needs: each leaf is a definition whose variable still
   holds that definition's value at the site, so the form can be
   evaluated there. Basic variables of *all* enclosing loops may
   appear, so a variable linear in an outer loop resolves identically
   at every nesting depth. *)

module Func = Nascent_ir.Func
open Nascent_ir.Types

type iv_class =
  | Inv
  | Linear of { step : int; init : Ssa.def_id }
  | Polynomial
  | Unknown

(* A symbolic term of an induction expression: either a stable SSA
   definition or the basic variable of an enclosing loop (identified by
   its header block). *)
type leaf = Ldef of Ssa.def_id | Lbasic of int

(* Induction expression: Σ coeff_i * leaf_i + const. *)
type linear_form = { leaves : (leaf * int) list; const : int }

let const_form k = { leaves = []; const = k }

let basic_form ?(coeff = 1) header = { leaves = [ (Lbasic header, coeff) ]; const = 0 }

let add_forms a b =
  let leaves =
    List.fold_left
      (fun acc (d, c) ->
        let c0 = Option.value ~default:0 (List.assoc_opt d acc) in
        let acc = List.remove_assoc d acc in
        if c0 + c = 0 then acc else (d, c0 + c) :: acc)
      a.leaves b.leaves
  in
  { leaves; const = a.const + b.const }

let scale_form k f =
  if k = 0 then const_form 0
  else { leaves = List.map (fun (d, c) -> (d, k * c)) f.leaves; const = k * f.const }

let is_identity_leaf d f = f.const = 0 && f.leaves = [ (Ldef d, 1) ]

type ctx = {
  ssa : Ssa.t;
  (* the loops enclosing the site, innermost first *)
  loops : Loops.loop list;
  (* the environment the result must be valid in: vid -> reaching def *)
  site_env : int array;
}

(* Does this phi sit at the header of one of the enclosing loops, with
   exactly one initial (out-of-loop) and one update (in-loop)
   argument? Returns the loop too. *)
let header_phi ctx (d : Ssa.def_id) : (Loops.loop * Ssa.def_id * Ssa.def_id) option =
  match Ssa.def ctx.ssa d with
  | Ssa.Dphi { bid; args; _ } -> (
      match List.find_opt (fun (l : Loops.loop) -> l.Loops.header = bid) ctx.loops with
      | None -> None
      | Some loop -> (
          let inits, updates =
            List.partition (fun (pred, _) -> not (Loops.in_loop loop pred)) args
          in
          match (inits, updates) with
          | [ (_, init) ], [ (_, update) ] -> Some (loop, init, update)
          | _ -> None))
  | _ -> None

(* --- step resolution: value(d) = a * phi + c, integer a and c --------
   [loop] is the loop whose recurrence is being resolved. *)

let rec step_form ctx ~loop ~phi ~fuel (d : Ssa.def_id) : (int * int) option =
  if fuel = 0 then None
  else if d = phi then Some (1, 0)
  else
    match Ssa.def ctx.ssa d with
    | Ssa.Dassign { bid; idx; rhs; _ } when Loops.in_loop loop bid -> (
        match Ssa.snapshot ctx.ssa ~bid ~idx with
        | None -> None
        | Some env -> step_expr ctx ~loop ~phi ~fuel:(fuel - 1) ~env rhs)
    | _ ->
        (* out-of-loop values must be compile-time constants for the
           step to be a constant *)
        Option.map (fun k -> (0, k)) (const_of ctx ~fuel:(fuel - 1) d)

and step_expr ctx ~loop ~phi ~fuel ~env (e : expr) : (int * int) option =
  match e with
  | Cint k -> Some (0, k)
  | Evar v when v.vty = Int && env.(v.vid) >= 0 ->
      step_form ctx ~loop ~phi ~fuel env.(v.vid)
  | Eun (Neg, a) ->
      Option.map (fun (x, y) -> (-x, -y)) (step_expr ctx ~loop ~phi ~fuel ~env a)
  | Ebin (Add, a, b) -> (
      match
        (step_expr ctx ~loop ~phi ~fuel ~env a, step_expr ctx ~loop ~phi ~fuel ~env b)
      with
      | Some (xa, ya), Some (xb, yb) -> Some (xa + xb, ya + yb)
      | _ -> None)
  | Ebin (Sub, a, b) -> (
      match
        (step_expr ctx ~loop ~phi ~fuel ~env a, step_expr ctx ~loop ~phi ~fuel ~env b)
      with
      | Some (xa, ya), Some (xb, yb) -> Some (xa - xb, ya - yb)
      | _ -> None)
  | Ebin (Mul, a, b) -> (
      match
        (step_expr ctx ~loop ~phi ~fuel ~env a, step_expr ctx ~loop ~phi ~fuel ~env b)
      with
      | Some (0, ka), Some (xb, yb) -> Some (ka * xb, ka * yb)
      | Some (xa, ya), Some (0, kb) -> Some (xa * kb, ya * kb)
      | _ -> None)
  | _ -> None

(* compile-time constant value of a definition, if any *)
and const_of ctx ~fuel (d : Ssa.def_id) : int option =
  if fuel = 0 then None
  else
    match Ssa.def ctx.ssa d with
    | Ssa.Dassign { bid; idx; rhs; _ } -> (
        match Ssa.snapshot ctx.ssa ~bid ~idx with
        | None -> None
        | Some env -> const_expr ctx ~fuel:(fuel - 1) ~env rhs)
    | _ -> None

and const_expr ctx ~fuel ~env (e : expr) : int option =
  match e with
  | Cint k -> Some k
  | Evar v when v.vty = Int && env.(v.vid) >= 0 -> const_of ctx ~fuel env.(v.vid)
  | Eun (Neg, a) -> Option.map (fun k -> -k) (const_expr ctx ~fuel ~env a)
  | Ebin (Add, a, b) -> combine ctx ~fuel ~env ( + ) a b
  | Ebin (Sub, a, b) -> combine ctx ~fuel ~env ( - ) a b
  | Ebin (Mul, a, b) -> combine ctx ~fuel ~env ( * ) a b
  | _ -> None

and combine ctx ~fuel ~env op a b =
  match (const_expr ctx ~fuel ~env a, const_expr ctx ~fuel ~env b) with
  | Some x, Some y -> Some (op x y)
  | _ -> None

(* --- classification -------------------------------------------------- *)

let default_fuel = 24

let classify (ssa : Ssa.t) (loop : Loops.loop) (d : Ssa.def_id) : iv_class =
  let ctx = { ssa; loops = [ loop ]; site_env = [||] } in
  match Ssa.def_block ssa d with
  | Some bid when Loops.in_loop loop bid -> (
      match header_phi ctx d with
      | Some (loop, init, update) -> (
          match step_form ctx ~loop ~phi:d ~fuel:default_fuel update with
          | Some (1, c) -> Linear { step = c; init }
          | Some _ -> Unknown
          | None -> (
              (* is the increment linear in some other IV of the loop?
                 then the recurrence is polynomial (Figure 2's k). *)
              match Ssa.def ssa update with
              | Ssa.Dassign { bid = ub; idx; rhs; _ } when Loops.in_loop loop ub -> (
                  match Ssa.snapshot ssa ~bid:ub ~idx with
                  | None -> Unknown
                  | Some env ->
                      let self_coeff_linear_rest =
                        (* rhs = 1*self + (something linear in another
                           header phi)? conservative structural test:
                           rhs mentions d and some other linear phi *)
                        let rec mentions_def e =
                          match e with
                          | Evar v when v.vty = Int && env.(v.vid) >= 0 ->
                              [ env.(v.vid) ]
                          | Eun (_, a) -> mentions_def a
                          | Ebin (_, a, b) -> mentions_def a @ mentions_def b
                          | _ -> []
                        in
                        let used = mentions_def rhs in
                        List.mem d used
                        && List.exists
                             (fun u ->
                               u <> d
                               &&
                               match header_phi ctx u with
                               | Some (l', _, upd) -> (
                                   match
                                     step_form ctx ~loop:l' ~phi:u ~fuel:default_fuel upd
                                   with
                                   | Some (1, _) -> true
                                   | _ -> false)
                               | None -> false)
                             used
                      in
                      if self_coeff_linear_rest then Polynomial else Unknown)
              | _ -> Unknown))
      | None -> Unknown)
  | Some _ -> Unknown (* in-loop assignment: classified via linear_form *)
  | None -> Inv

(* --- linear forms for the INX rewriting ------------------------------ *)

(* Resolve definition [d] into [Σ coeff*h_L + leaves + const], valid at
   a site whose environment is [site_env]: every leaf definition must be
   the reaching definition of its variable at that site, so reading the
   variable there yields the leaf's value. *)
let rec linear_form ctx ~fuel (d : Ssa.def_id) : linear_form option =
  if fuel = 0 then None
  else
    let leaf_valid () =
      let v = Ssa.var_of_def ctx.ssa d in
      v.vid < Array.length ctx.site_env && ctx.site_env.(v.vid) = d
    in
    let leaf () =
      if leaf_valid () then Some { leaves = [ (Ldef d, 1) ]; const = 0 } else None
    in
    match header_phi ctx d with
    | Some (loop, init, update) -> (
        match step_form ctx ~loop ~phi:d ~fuel update with
        | Some (1, step) -> (
            (* value = init + step * h_loop; the init must not itself
               depend on this loop's basic variable *)
            match linear_form ctx ~fuel:(fuel - 1) init with
            | Some fi
              when not
                     (List.mem_assoc (Lbasic loop.Loops.header) fi.leaves) ->
                Some (add_forms fi (basic_form ~coeff:step loop.Loops.header))
            | _ -> leaf ())
        | _ -> leaf ())
    | None -> (
        (* Prefer expanding assignments (that is where the induction
           information lives: k = n + 1 resolves to an n-based form);
           fall back to a validated leaf. *)
        let expanded =
          match Ssa.def ctx.ssa d with
          | Ssa.Dassign { bid; idx; rhs; _ } -> (
              match Ssa.snapshot ctx.ssa ~bid ~idx with
              | None -> None
              | Some env -> linear_expr ctx ~fuel:(fuel - 1) ~env rhs)
          | _ -> None
        in
        match expanded with Some f -> Some f | None -> leaf ())

(* Linear form of an expression under environment [env] (the site where
   the expression occurs), recursing through definitions. *)
and linear_expr ctx ~fuel ~env (e : expr) : linear_form option =
  if fuel = 0 then None
  else
    match e with
    | Cint k -> Some (const_form k)
    | Evar v when v.vty = Int && v.vid < Array.length env && env.(v.vid) >= 0 ->
        linear_form ctx ~fuel:(fuel - 1) env.(v.vid)
    | Eun (Neg, a) -> Option.map (scale_form (-1)) (linear_expr ctx ~fuel ~env a)
    | Ebin (Add, a, b) -> (
        match (linear_expr ctx ~fuel ~env a, linear_expr ctx ~fuel ~env b) with
        | Some fa, Some fb -> Some (add_forms fa fb)
        | _ -> None)
    | Ebin (Sub, a, b) -> (
        match (linear_expr ctx ~fuel ~env a, linear_expr ctx ~fuel ~env b) with
        | Some fa, Some fb -> Some (add_forms fa (scale_form (-1) fb))
        | _ -> None)
    | Ebin (Mul, a, b) -> (
        match (linear_expr ctx ~fuel ~env a, linear_expr ctx ~fuel ~env b) with
        | Some { leaves = []; const = k }, Some f | Some f, Some { leaves = []; const = k }
          ->
            Some (scale_form k f)
        | _ -> None)
    | _ -> None

(* Public entry: the induction form of the value of variable [v] at the
   site with environment [site_env]; [loops] are the loops enclosing
   the site, innermost first. *)
let form_of_var (ssa : Ssa.t) (loops : Loops.loop list) ~(site_env : int array)
    (v : var) : linear_form option =
  if v.vty <> Int || v.vid >= Array.length site_env || site_env.(v.vid) < 0 then None
  else
    let ctx = { ssa; loops; site_env } in
    linear_form ctx ~fuel:default_fuel site_env.(v.vid)

(* The trip count of a do loop as an expression, when derivable:
   max(0, (hi - lo + step) / step) for positive step. Used by tests and
   by the LLS substitution on basic variables. *)
let trip_count_expr (d : do_info) : expr =
  let s = d.d_step in
  let span = if s > 0 then Ebin (Sub, d.d_hi, d.d_lo) else Ebin (Sub, d.d_lo, d.d_hi) in
  let per = abs s in
  let raw =
    if per = 1 then Ebin (Add, span, Cint 1)
    else Ebin (Add, Ebin (Div, span, Cint per), Cint 1)
  in
  Nascent_ir.Expr.fold (Ebin (Max, Cint 0, raw))
