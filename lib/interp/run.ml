(* Instrumented IR interpreter (counting model and semantics: run.mli).

   [run] compiles every function into OCaml closures, then runs them;
   everything a tree walk would redo on each evaluation is done once
   here. Closures charge exactly where the counting model says: an
   expression node before its operands, an instruction after them, a
   check before its opaque atoms.

   Typing: an expression whose static type is known compiles to an
   [I], [R] or [B] closure over unboxed values; anything else to a [V]
   closure that replays the dynamic dispatch over [Value.t], so a
   type error surfaces at run time, when the node executes. Scalars
   and array payloads are stored unboxed by type, which only works if
   every store in the program fits its target's type; if one does not
   (hand-built IR only: sema rejects such source), compiling raises
   [Ill_typed] and the program is recompiled with [Value.t] storage,
   so every variable and array read is a [V] closure.

   The compiled code and its [state] belong to one run: no table
   outlives it, so concurrent runs of one program share nothing
   mutable. *)

module Ir = Nascent_ir
module Check = Nascent_checks.Check
module Atom = Nascent_checks.Atom
open Ir.Types
open Value

exception Trap of string
exception Runtime_error of string
exception Out_of_fuel

(* Raised while compiling: some store would break typed storage, so
   the program must run on [Value.t] storage. *)
exception Ill_typed

type outcome = {
  printed : Value.t list;
  trap : string option;
  error : string option; (* non-trap runtime error (e.g. division by zero) *)
  instrs : int;
  checks : int;
  cond_guards : int;
  fuel_exhausted : bool;
}

(* Every instruction unit and every executed check burns one unit of
   fuel, so the instruction count is not kept: it is the fuel spent
   minus the checks. *)
type state = {
  mutable fuel : int;
  mutable checks : int;
  mutable cond_guards : int; (* cond-check guard evaluations *)
  mutable printed : Value.t list;
}

(* An array as one frame addresses it. The payload is shared by
   reference with callers and callees; exactly one of [ints], [reals]
   and [vals] is in use. The addressing is this frame's own, fixed on
   first touch (after the entry block has assigned any bound temps):
   [los] and column-major [strides] per dimension, with the first two
   dimensions copied into fields for the rank-1 and rank-2 paths. *)
type view = {
  fixed : bool;
  ints : int array;
  reals : float array;
  vals : Value.t array;
  size : int; (* payload length *)
  lo0 : int;
  lo1 : int;
  stride1 : int;
  los : int array;
  strides : int array;
}

(* Scalars are indexed by vid: typed programs keep integers in [ints]
   and reals in [reals], generic ones every scalar in [vals]. *)
type frame = { ints : int array; reals : float array; vals : Value.t array; arrs : view array }

(* A local array not yet touched, or (as the template of a bound
   parameter) a payload whose callee-side dims are not yet fixed. *)
let unfixed =
  {
    fixed = false;
    ints = [||];
    reals = [||];
    vals = [||];
    size = 0;
    lo0 = 0;
    lo1 = 0;
    stride1 = 0;
    los = [||];
    strides = [||];
  }

(* A compiled expression, by the type of its result. *)
type code =
  | I of (frame -> int)
  | R of (frame -> float)
  | B of (frame -> bool)
  | V of (frame -> Value.t)

(* A function being compiled: its IR, its array slots, and its body,
   filled in once every function's layout is known. *)
type unit_ = {
  func : Ir.Func.t;
  slots : (int, int) Hashtbl.t; (* aid -> frame slot *)
  mutable arr_params : int; (* slots [0, arr_params) hold array parameters *)
  vtys : (int, ty) Hashtbl.t; (* vid -> declared type *)
  mutable body : frame -> unit;
}

type cx = { st : state; typed : bool; units : (string, unit_) Hashtbl.t; cur : unit_ }

let charge st =
  let f = st.fuel - 1 in
  st.fuel <- f;
  if f < 0 then raise Out_of_fuel

let error msg = raise (Runtime_error msg)
let ill_typed what = error ("ill-typed value: expected " ^ what)
let int_of = function VInt n -> n | _ -> ill_typed "an integer"
let bool_of = function VBool b -> b | _ -> ill_typed "a logical"
let arity name params nargs =
  Printf.sprintf "%s expects %d argument(s), got %d" name (List.length params) nargs

let assignable ty v = match (ty, v) with Real, VInt n -> VReal (float_of_int n) | _ -> v

(* --- the generic dynamic dispatch ------------------------------------- *)

let promote_pair a b =
  match (a, b) with
  | VInt x, VReal y -> (VReal (float_of_int x), VReal y)
  | VReal x, VInt y -> (VReal x, VReal (float_of_int y))
  | _ -> (a, b)

let unop op v =
  match (op, v) with
  | Neg, VInt n -> VInt (-n)
  | Neg, VReal f -> VReal (-.f)
  | Not, VBool b -> VBool (not b)
  | Abs, VInt n -> VInt (abs n)
  | Abs, VReal f -> VReal (Float.abs f)
  | _ -> error "ill-typed unary operation"

let binop op va vb =
  match op with
  | And -> VBool (bool_of va && bool_of vb)
  | Or -> VBool (bool_of va || bool_of vb)
  | _ -> (
      let va, vb = promote_pair va vb in
      match (op, va, vb) with
      | Add, VInt x, VInt y -> VInt (x + y)
      | Add, VReal x, VReal y -> VReal (x +. y)
      | Sub, VInt x, VInt y -> VInt (x - y)
      | Sub, VReal x, VReal y -> VReal (x -. y)
      | Mul, VInt x, VInt y -> VInt (x * y)
      | Mul, VReal x, VReal y -> VReal (x *. y)
      | Div, VInt _, VInt 0 -> error "integer division by zero"
      | Div, VInt x, VInt y -> VInt (x / y)
      | Div, VReal x, VReal y -> VReal (x /. y)
      | Mod, VInt _, VInt 0 -> error "mod by zero"
      | Mod, VInt x, VInt y -> VInt (x mod y)
      | Min, VInt x, VInt y -> VInt (min x y)
      | Min, VReal x, VReal y -> VReal (Float.min x y)
      | Max, VInt x, VInt y -> VInt (max x y)
      | Max, VReal x, VReal y -> VReal (Float.max x y)
      | Eq, VInt x, VInt y -> VBool (x = y)
      | Eq, VReal x, VReal y -> VBool (x = y)
      | Ne, VInt x, VInt y -> VBool (x <> y)
      | Ne, VReal x, VReal y -> VBool (x <> y)
      | Lt, VInt x, VInt y -> VBool (x < y)
      | Lt, VReal x, VReal y -> VBool (x < y)
      | Le, VInt x, VInt y -> VBool (x <= y)
      | Le, VReal x, VReal y -> VBool (x <= y)
      | Gt, VInt x, VInt y -> VBool (x > y)
      | Gt, VReal x, VReal y -> VBool (x > y)
      | Ge, VInt x, VInt y -> VBool (x >= y)
      | Ge, VReal x, VReal y -> VBool (x >= y)
      | _ -> error "ill-typed binary operation")

let value_code = function
  | I f -> fun fr -> VInt (f fr)
  | R f -> fun fr -> VReal (f fr)
  | B f -> fun fr -> VBool (f fr)
  | V f -> f

let int_code = function
  | I f -> f
  | c ->
      let f = value_code c in
      fun fr -> int_of (f fr)

let bool_code = function
  | B f -> f
  | c ->
      let f = value_code c in
      fun fr -> bool_of (f fr)

(* Only called on I or R: the promotion of [promote_pair]. *)
let real_code = function
  | R f -> f
  | I f -> fun fr -> float_of_int (f fr)
  | B _ | V _ -> invalid_arg "real_code"

(* --- typed operations --------------------------------------------------- *)

(* Each operation is written out so that OCaml specializes its
   arithmetic and comparisons; [None] leaves the node to the generic
   dispatch, which reports the same error the type mismatch would. *)
let int_binop st op (fa : frame -> int) (fb : frame -> int) =
  match op with
  | Add -> Some (I (fun fr -> charge st; let x = fa fr in let y = fb fr in x + y))
  | Sub -> Some (I (fun fr -> charge st; let x = fa fr in let y = fb fr in x - y))
  | Mul -> Some (I (fun fr -> charge st; let x = fa fr in let y = fb fr in x * y))
  | Div ->
      Some
        (I
           (fun fr ->
             charge st;
             let x = fa fr in
             let y = fb fr in
             if y = 0 then error "integer division by zero" else x / y))
  | Mod ->
      Some
        (I
           (fun fr ->
             charge st;
             let x = fa fr in
             let y = fb fr in
             if y = 0 then error "mod by zero" else x mod y))
  | Min -> Some (I (fun fr -> charge st; let x = fa fr in let y = fb fr in if x <= y then x else y))
  | Max -> Some (I (fun fr -> charge st; let x = fa fr in let y = fb fr in if x >= y then x else y))
  | Eq -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x = y))
  | Ne -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x <> y))
  | Lt -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x < y))
  | Le -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x <= y))
  | Gt -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x > y))
  | Ge -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x >= y))
  | And | Or -> None

let real_binop st op (fa : frame -> float) (fb : frame -> float) =
  match op with
  | Add -> Some (R (fun fr -> charge st; let x = fa fr in let y = fb fr in x +. y))
  | Sub -> Some (R (fun fr -> charge st; let x = fa fr in let y = fb fr in x -. y))
  | Mul -> Some (R (fun fr -> charge st; let x = fa fr in let y = fb fr in x *. y))
  | Div -> Some (R (fun fr -> charge st; let x = fa fr in let y = fb fr in x /. y))
  | Min -> Some (R (fun fr -> charge st; let x = fa fr in let y = fb fr in Float.min x y))
  | Max -> Some (R (fun fr -> charge st; let x = fa fr in let y = fb fr in Float.max x y))
  | Eq -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x = y))
  | Ne -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x <> y))
  | Lt -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x < y))
  | Le -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x <= y))
  | Gt -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x > y))
  | Ge -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x >= y))
  | Mod | And | Or -> None

let bool_binop st op (fa : frame -> bool) (fb : frame -> bool) =
  match op with
  | And -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x && y))
  | Or -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x || y))
  | _ -> None

(* --- arrays --------------------------------------------------------------- *)

(* Fix [v]'s dims, keeping its payload: column-major strides over the
   extents [max 0 (hi - lo + 1)]. Also returns the element count. *)
let layout v dims =
  let rank = List.length dims in
  let los = Array.of_list (List.map fst dims) in
  let strides = Array.make rank 1 in
  let m = ref 1 in
  List.iteri
    (fun j (lo, hi) ->
      strides.(j) <- !m;
      m := !m * max 0 (hi - lo + 1))
    dims;
  let nth a j = if j < rank then a.(j) else 0 in
  let lo0 = nth los 0 and lo1 = nth los 1 and stride1 = nth strides 1 in
  ({ v with fixed = true; lo0; lo1; stride1; los; strides }, !m)

(* Out-of-storage accesses can only happen when range checks were
   (incorrectly) removed; they are a memory fault, not a trap. *)
let in_storage (a : arr) v off =
  if off < 0 || off >= v.size then
    error (Printf.sprintf "memory fault on %s (offset %d)" a.aname off)
  else off

let at1 a v x = in_storage a v (x - v.lo0)
let at2 a v x y = in_storage a v (x - v.lo0 + ((y - v.lo1) * v.stride1))

let atn (a : arr) v xs =
  if Array.length xs <> Array.length v.los then error ("rank mismatch accessing " ^ a.aname);
  let off = ref 0 in
  Array.iteri (fun j x -> off := !off + ((x - v.los.(j)) * v.strides.(j))) xs;
  in_storage a v !off

let eval_all fs fr = Array.map (fun f -> f fr) fs

(* --- compiling ------------------------------------------------------------ *)

let slot u aid =
  match Hashtbl.find_opt u.slots aid with
  | Some k -> k
  | None ->
      let k = Hashtbl.length u.slots in
      Hashtbl.replace u.slots aid k;
      k

(* The storage type of a scalar of [u] in a typed program: [Int] or
   [Real]. A logical scalar, or a var whose type disagrees with its
   declaration, needs [Value.t] storage; an undeclared var starts as
   [VInt 0], so only an integer one fits typed storage. *)
let var_ty u (v : var) =
  match (Hashtbl.find_opt u.vtys v.vid, v.vty) with
  | Some t, t' when t <> t' -> raise Ill_typed
  | None, (Real | Bool) | _, Bool -> raise Ill_typed
  | _, t -> t

let payload_ty cx (a : arr) = if cx.typed && a.aty = Bool then raise Ill_typed else a.aty

let var_int cx (v : var) : frame -> int =
  let vid = v.vid in
  if not cx.typed then fun fr -> int_of fr.vals.(vid)
  else
    match var_ty cx.cur v with
    | Int -> fun fr -> fr.ints.(vid)
    | _ -> fun _ -> ill_typed "an integer"

let bound cx = function Bconst n -> fun _ -> n | Bvar v -> var_int cx v

(* [frame -> view] for [a], fixing its dims on first touch: a
   parameter's payload came with the call, a local's is allocated
   zeroed. *)
let view cx (a : arr) =
  let k = slot cx.cur a.aid in
  let bounds = List.map (fun (lo, hi) -> (bound cx lo, bound cx hi)) a.adims in
  let param = k < cx.cur.arr_params in
  let ty = payload_ty cx a and typed = cx.typed in
  let touch fr =
    let dims = List.map (fun (lo, hi) -> (lo fr, hi fr)) bounds in
    let v =
      if param then fst (layout fr.arrs.(k) dims)
      else
        let v, n = layout unfixed dims in
        let size = max n 1 in
        match ty with
        | Int when typed -> { v with ints = Array.make size 0; size }
        | Real when typed -> { v with reals = Array.make size 0.0; size }
        | _ -> { v with vals = Array.make size (zero_of_ty ty); size }
    in
    fr.arrs.(k) <- v;
    v
  in
  fun fr ->
    let v = fr.arrs.(k) in
    if v.fixed then v else touch fr

let rec expr cx (e : expr) : code =
  let st = cx.st in
  match e with
  | Cint n -> I (fun _ -> charge st; n)
  | Creal f -> R (fun _ -> charge st; f)
  | Cbool b -> B (fun _ -> charge st; b)
  | Evar v -> (
      let vid = v.vid in
      if not cx.typed then V (fun fr -> charge st; fr.vals.(vid))
      else
        match var_ty cx.cur v with
        | Int -> I (fun fr -> charge st; fr.ints.(vid))
        | _ -> R (fun fr -> charge st; fr.reals.(vid)))
  | Eload (a, idxs) -> load cx a (List.map (fun i -> int_code (expr cx i)) idxs)
  | Eun (op, a) -> (
      match (op, expr cx a) with
      | Neg, I f -> I (fun fr -> charge st; -f fr)
      | Neg, R f -> R (fun fr -> charge st; -.f fr)
      | Abs, I f -> I (fun fr -> charge st; abs (f fr))
      | Abs, R f -> R (fun fr -> charge st; Float.abs (f fr))
      | Not, B f -> B (fun fr -> charge st; not (f fr))
      | _, c ->
          let f = value_code c in
          V (fun fr -> charge st; unop op (f fr)))
  | Ebin (op, a, b) -> (
      let ca = expr cx a in
      let cb = expr cx b in
      let typed =
        match (ca, cb) with
        | I fa, I fb -> int_binop st op fa fb
        | (I _ | R _), (I _ | R _) -> real_binop st op (real_code ca) (real_code cb)
        | B fa, B fb -> bool_binop st op fa fb
        | _ -> None
      in
      match typed with
      | Some c -> c
      | None ->
          let fa = value_code ca and fb = value_code cb in
          V
            (fun fr ->
              charge st;
              let va = fa fr in
              let vb = fb fr in
              binop op va vb))

(* The load's unit, its subscripts left to right, then the touch. *)
and load cx a idxs =
  let st = cx.st and view = view cx a in
  match (payload_ty cx a, idxs, a.adims) with
  | Int, [ i ], [ _ ] when cx.typed ->
      I (fun fr -> charge st; let x = i fr in let v = view fr in v.ints.(at1 a v x))
  | Real, [ i ], [ _ ] when cx.typed ->
      R (fun fr -> charge st; let x = i fr in let v = view fr in v.reals.(at1 a v x))
  | Int, [ i; j ], [ _; _ ] when cx.typed ->
      I
        (fun fr ->
          charge st;
          let x = i fr in
          let y = j fr in
          let v = view fr in
          v.ints.(at2 a v x y))
  | Real, [ i; j ], [ _; _ ] when cx.typed ->
      R
        (fun fr ->
          charge st;
          let x = i fr in
          let y = j fr in
          let v = view fr in
          v.reals.(at2 a v x y))
  | Int, _, _ when cx.typed ->
      let is = Array.of_list idxs in
      I (fun fr -> charge st; let xs = eval_all is fr in let v = view fr in v.ints.(atn a v xs))
  | Real, _, _ when cx.typed ->
      let is = Array.of_list idxs in
      R (fun fr -> charge st; let xs = eval_all is fr in let v = view fr in v.reals.(atn a v xs))
  | _ ->
      let is = Array.of_list idxs in
      V (fun fr -> charge st; let xs = eval_all is fr in let v = view fr in v.vals.(atn a v xs))

let trap_message (m : check_meta) =
  Fmt.str "range check failed: %s dimension %d (%s bound): %a" m.src_array m.src_dim
    (match m.kind with Lower -> "lower" | Upper -> "upper")
    Check.pp m.chk

(* A canonical check: count it, sum its linear terms, compare. *)
let check cx (m : check_meta) =
  let st = cx.st in
  let reader (atom, coeff) =
    ( coeff,
      match Ir.Atoms.payload cx.cur.func.Ir.Func.atoms (Atom.key atom) with
      | Some (Ir.Atoms.Avar v) -> var_int cx v
      | Some (Ir.Atoms.Aopaque e) -> int_code (expr cx e)
      | Some (Ir.Atoms.Asynth name) ->
          fun _ -> error ("synthetic atom " ^ name ^ " in an executed check")
      | None -> fun _ -> error ("unknown atom " ^ Atom.name atom ^ " in an executed check") )
  in
  let terms =
    Array.of_list (List.map reader (Nascent_checks.Linexpr.terms (Check.lhs m.chk)))
  in
  let k = Check.constant m.chk in
  let count () =
    st.checks <- st.checks + 1;
    charge st
  in
  let fail () = raise (Trap (trap_message m)) in
  match terms with
  | [| (c, r) |] -> fun fr -> count (); if c * r fr > k then fail ()
  | [| (c, r); (c', r') |] ->
      fun fr ->
        count ();
        let s = c * r fr in
        if s + (c' * r' fr) > k then fail ()
  | _ ->
      fun fr ->
        count ();
        let s = ref 0 in
        Array.iter (fun (c, r) -> s := !s + (c * r fr)) terms;
        if !s > k then fail ()

let assign cx (v : var) c =
  let st = cx.st and vid = v.vid in
  if not cx.typed then
    let f = value_code c in
    fun fr ->
      let x = f fr in
      charge st;
      fr.vals.(vid) <- assignable v.vty x
  else
    match (var_ty cx.cur v, c) with
    | Int, I f -> fun fr -> let x = f fr in charge st; fr.ints.(vid) <- x
    | Real, (I _ | R _) ->
        let f = real_code c in
        fun fr -> let x = f fr in charge st; fr.reals.(vid) <- x
    | _ -> raise Ill_typed

(* Subscripts, then the value, then the store's unit, then the touch. *)
let store cx a idxs c =
  let st = cx.st and view = view cx a in
  let idxs = List.map (fun i -> int_code (expr cx i)) idxs in
  let ty = payload_ty cx a in
  if not cx.typed then
    let is = Array.of_list idxs and f = value_code c in
    fun fr ->
      let xs = eval_all is fr in
      let x = f fr in
      charge st;
      let v = view fr in
      v.vals.(atn a v xs) <- assignable ty x
  else
    let c = match (ty, c) with Real, I _ -> R (real_code c) | _ -> c in
    match (ty, c, idxs, a.adims) with
    | Int, I f, [ i ], [ _ ] ->
        fun fr ->
          let x = i fr in
          let y = f fr in
          charge st;
          let v = view fr in
          v.ints.(at1 a v x) <- y
    | Real, R f, [ i ], [ _ ] ->
        fun fr ->
          let x = i fr in
          let y = f fr in
          charge st;
          let v = view fr in
          v.reals.(at1 a v x) <- y
    | Int, I f, [ i; j ], [ _; _ ] ->
        fun fr ->
          let x = i fr in
          let x' = j fr in
          let y = f fr in
          charge st;
          let v = view fr in
          v.ints.(at2 a v x x') <- y
    | Real, R f, [ i; j ], [ _; _ ] ->
        fun fr ->
          let x = i fr in
          let x' = j fr in
          let y = f fr in
          charge st;
          let v = view fr in
          v.reals.(at2 a v x x') <- y
    | Int, I f, _, _ ->
        let is = Array.of_list idxs in
        fun fr ->
          let xs = eval_all is fr in
          let y = f fr in
          charge st;
          let v = view fr in
          v.ints.(atn a v xs) <- y
    | Real, R f, _, _ ->
        let is = Array.of_list idxs in
        fun fr ->
          let xs = eval_all is fr in
          let y = f fr in
          charge st;
          let v = view fr in
          v.reals.(atn a v xs) <- y
    | _ -> raise Ill_typed

let new_frame ~typed u =
  let n = max u.func.Ir.Func.next_vid 1 in
  if typed then
    let reals = Hashtbl.fold (fun _ t acc -> acc || t = Real) u.vtys false in
    fun () ->
      {
        ints = Array.make n 0;
        reals = (if reals then Array.make n 0.0 else [||]);
        vals = [||];
        arrs = Array.make (Hashtbl.length u.slots) unfixed;
      }
  else
    (* Locals start as the zero of their type. *)
    let zeros = Array.make n (VInt 0) in
    List.iter (fun (v : var) -> zeros.(v.vid) <- zero_of_ty v.vty) u.func.Ir.Func.vars;
    fun () ->
      {
        ints = [||];
        reals = [||];
        vals = Array.copy zeros;
        arrs = Array.make (Hashtbl.length u.slots) unfixed;
      }

(* Scalars by value (an integer promoted for a real parameter), arrays
   by reference: the callee addresses the payload through its own
   declared dims, fixed on first touch. *)
let bind cx callee (p : param) (arg : call_arg) : frame -> frame -> unit =
  match (p, arg) with
  | Pscalar v, Aexpr e -> (
      let vid = v.vid and c = expr cx e in
      if not cx.typed then
        let f = value_code c in
        fun fr cf -> cf.vals.(vid) <- assignable v.vty (f fr)
      else
        match (var_ty callee v, c) with
        | Int, I f -> fun fr cf -> cf.ints.(vid) <- f fr
        | Real, (I _ | R _) ->
            let f = real_code c in
            fun fr cf -> cf.reals.(vid) <- f fr
        | _ -> raise Ill_typed)
  | Parr p, Aarr a ->
      if cx.typed && a.aty <> p.aty then raise Ill_typed;
      let view = view cx a and k = slot callee p.aid in
      fun fr cf ->
        let v = view fr in
        cf.arrs.(k) <- { unfixed with ints = v.ints; reals = v.reals; vals = v.vals; size = v.size }
  | _ -> invalid_arg "bind"

(* The call's unit, then the arguments left to right, then the callee.
   A call that cannot bind still evaluates its arguments first. *)
let call cx name args =
  let st = cx.st in
  match Hashtbl.find_opt cx.units name with
  | None -> fun _ -> error ("call to unknown subroutine " ^ name)
  | Some callee -> (
      let params = callee.func.Ir.Func.params in
      let rec mismatch ps args' =
        match (ps, args') with
        | [], [] -> None
        | Pscalar _ :: ps, Aexpr _ :: args' | Parr _ :: ps, Aarr _ :: args' -> mismatch ps args'
        | _ :: _, _ :: _ -> Some ("argument kind mismatch calling " ^ name)
        | _ -> Some (arity name params (List.length args))
      in
      match mismatch params args with
      | Some msg ->
          let evals =
            List.map
              (function
                | Aexpr e ->
                    let f = value_code (expr cx e) in
                    fun fr -> ignore (f fr)
                | Aarr a ->
                    let view = view cx a in
                    fun fr -> ignore (view fr))
              args
          in
          fun fr ->
            charge st;
            List.iter (fun ev -> ev fr) evals;
            error msg
      | None ->
          let binds = Array.of_list (List.map2 (bind cx callee) params args) in
          let new_frame = new_frame ~typed:cx.typed callee in
          fun fr ->
            charge st;
            let cf = new_frame () in
            for j = 0 to Array.length binds - 1 do
              binds.(j) fr cf
            done;
            callee.body cf)

let instr cx (i : instr) : frame -> unit =
  let st = cx.st in
  match i with
  | Assign (v, e) -> assign cx v (expr cx e)
  | Store (a, idxs, e) -> store cx a idxs (expr cx e)
  | Check m -> check cx m
  | Cond_check (g, m) ->
      let g = bool_code (expr cx g) and chk = check cx m in
      fun fr ->
        st.cond_guards <- st.cond_guards + 1;
        if g fr then chk fr
  | Trap msg ->
      let msg = "compile-time range violation: " ^ msg in
      fun _ -> raise (Trap msg)
  | Call (name, args) -> call cx name args
  | Print e ->
      let f = value_code (expr cx e) in
      fun fr ->
        let v = f fr in
        charge st;
        st.printed <- v :: st.printed

(* A block returns the block to run next, or -1 on return. *)
let block cx (b : block) : frame -> int =
  let st = cx.st in
  let instrs = Array.of_list (List.map (instr cx) b.instrs) in
  let run fr =
    for j = 0 to Array.length instrs - 1 do
      instrs.(j) fr
    done;
    charge st
  in
  match b.term with
  | Goto l -> fun fr -> run fr; l
  | Branch (c, t, e) ->
      let c = bool_code (expr cx c) in
      fun fr -> run fr; if c fr then t else e
  | Ret -> fun fr -> run fr; -1

let body cx =
  let f = cx.cur.func in
  let blocks = Array.init (Ir.Func.num_blocks f) (fun bid -> block cx (Ir.Func.block f bid)) in
  let entry = f.Ir.Func.entry in
  fun fr ->
    let b = ref entry in
    while !b >= 0 do
      b := blocks.(!b) fr
    done

(* Lay out every function, then compile the bodies, so that calls can
   resolve their callees; returns the main unit's entry. *)
let compile st ~typed prog =
  let units = Hashtbl.create 8 in
  Ir.Program.iter_funcs
    (fun (f : Ir.Func.t) ->
      let vtys = Hashtbl.create 16 in
      (* the type [vars] initializes each vid with: the last entry wins *)
      List.iter (fun (v : var) -> Hashtbl.replace vtys v.vid v.vty) f.vars;
      let u = { func = f; slots = Hashtbl.create 8; arr_params = 0; vtys; body = ignore } in
      List.iter (function Parr a -> ignore (slot u a.aid) | Pscalar _ -> ()) f.params;
      u.arr_params <- Hashtbl.length u.slots;
      Hashtbl.replace units f.fname u)
    prog;
  Hashtbl.iter (fun _ u -> u.body <- body { st; typed; units; cur = u }) units;
  let main = Hashtbl.find units (Ir.Program.main_func prog).Ir.Func.fname in
  let frame = new_frame ~typed main in
  match main.func.Ir.Func.params with
  | [] -> fun () -> main.body (frame ())
  | ps ->
      let msg = arity main.func.fname ps 0 in
      fun () -> error msg

let default_fuel = 200_000_000

let run ?(fuel = default_fuel) (prog : Ir.Program.t) : outcome =
  let st = { fuel; checks = 0; cond_guards = 0; printed = [] } in
  let main = try compile st ~typed:true prog with Ill_typed -> compile st ~typed:false prog in
  let finish trap error fuel_exhausted =
    {
      printed = List.rev st.printed;
      trap;
      error;
      instrs = fuel - st.fuel - st.checks;
      checks = st.checks;
      cond_guards = st.cond_guards;
      fuel_exhausted;
    }
  in
  match main () with
  | () -> finish None None false
  | exception Trap msg -> finish (Some msg) None false
  | exception Runtime_error msg -> finish None (Some msg) false
  | exception Out_of_fuel -> finish None None true

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "@[<v>instrs=%d checks=%d cond-guards=%d%a%a%a@,printed: %a@]" o.instrs
    o.checks o.cond_guards
    (fun ppf -> function None -> () | Some t -> Fmt.pf ppf "@,TRAP: %s" t)
    o.trap
    (fun ppf -> function None -> () | Some e -> Fmt.pf ppf "@,ERROR: %s" e)
    o.error
    (fun ppf b -> if b then Fmt.pf ppf "@,(fuel exhausted)")
    o.fuel_exhausted
    Fmt.(list ~sep:comma Value.pp)
    o.printed
