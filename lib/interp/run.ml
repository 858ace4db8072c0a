(* Instrumented IR interpreter (counting model and semantics: run.mli).

   [run] compiles every function into OCaml closures, then runs them;
   everything a tree walk would redo on each evaluation is done once
   here. Closures charge exactly where the counting model says: an
   expression node before its operands, an instruction after them, a
   check before its opaque atoms.

   Threaded blocks: each block compiles to one [frame -> unit] closure
   that runs its instructions (inline for up to three, in a loop
   beyond), charges its terminator's unit, and then tail-calls the
   closure of its successor: a [Goto] its target, a [Branch] one of its
   two targets, while a [Ret] returns. The successor is read from a
   cell filled once every block is compiled, so loops close without a
   dispatcher, and a run of any length uses a constant OCaml stack
   within one call.

   Fused operands: where the types are known, a binary operation, a
   load or store, an assignment, a check and a branch read their leaf
   operands inline instead of calling their closures: a typed scalar
   slot, a constant, a [var +- const] node (three units: the node and
   its two leaves), and an int operand of a real operation, converted
   where it is read. They also read inline an array element of rank 1
   to 3 whose subscripts are such leaves: the units pending before it,
   its own and its subscripts' are charged just before the access,
   where the load's closure would charge them. An assignment or a store
   of [a + b], [a - b] or [a * b] computed in the target's type reads
   [a] and [b] itself, with the operation's unit pending before them
   and the assignment's or store's after them; a branch on an int
   comparison reads its operands itself, with the terminator's unit
   and the comparison's pending before them. The units that fall
   between two closure calls are charged by one [charge_n], before the
   next call or after the last operand, so a leaf that follows a
   closure operand is charged after that closure returns. A leaf read
   neither fails nor shows, and an element read faults only once its
   units are charged, so every trap, error and fuel cut-off falls at
   the same unit as with one closure per node; the generic path keeps
   one closure per node.

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
   [los] and column-major [strides] per dimension, with the first three
   dimensions copied into fields for the rank-1 to rank-3 paths. *)
type view = {
  fixed : bool;
  ints : int array;
  reals : float array;
  vals : Value.t array;
  size : int; (* payload length *)
  lo0 : int;
  lo1 : int;
  lo2 : int;
  stride1 : int;
  stride2 : int;
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
    lo2 = 0;
    stride1 = 0;
    stride2 = 0;
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

(* [n] units at once. On exhaustion the fuel is left where [n] single
   charges would leave it (the first one to go below zero raises), so
   the outcome cannot tell them apart as long as nothing observable
   happens between those units. *)
let[@inline] charge_n st n =
  let f = st.fuel - n in
  if f < 0 then begin
    st.fuel <- Int.min (st.fuel - 1) (-1);
    raise Out_of_fuel
  end;
  st.fuel <- f

let[@inline] charge st = charge_n st 1

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
  let lo0 = nth los 0 and lo1 = nth los 1 and lo2 = nth los 2 in
  let stride1 = nth strides 1 and stride2 = nth strides 2 in
  ({ v with fixed = true; lo0; lo1; lo2; stride1; stride2; los; strides }, !m)

(* Out-of-storage accesses can only happen when range checks were
   (incorrectly) removed; they are a memory fault, not a trap. *)
let in_storage (a : arr) v off =
  if off < 0 || off >= v.size then
    error (Printf.sprintf "memory fault on %s (offset %d)" a.aname off)
  else off

let at1 a v x = in_storage a v (x - v.lo0)
let at2 a v x y = in_storage a v (x - v.lo0 + ((y - v.lo1) * v.stride1))

let at3 a v x y z =
  in_storage a v (x - v.lo0 + ((y - v.lo1) * v.stride1) + ((z - v.lo2) * v.stride2))

let atn (a : arr) v xs =
  if Array.length xs <> Array.length v.los then error ("rank mismatch accessing " ^ a.aname);
  let off = ref 0 in
  Array.iteri (fun j x -> off := !off + ((x - v.los.(j)) * v.strides.(j))) xs;
  in_storage a v !off

let eval_all fs fr = Array.map (fun f -> f fr) fs

let[@inline] view_of fr k touch =
  let v = fr.arrs.(k) in
  if v.fixed then v else touch fr

(* --- fused operands ------------------------------------------------------ *)

(* An array element its parent reads inline, rank 1 to 3: [pre] units
   (those pending before it, the load's own and its subscripts') are
   charged, then the element of slot [k] at subscripts
   [fr.ints.(s0) + c0], [fr.ints.(s1) + c1], [fr.ints.(s2) + c2] is
   read, or faults, as the load's closure would. *)
type elem = {
  pre : int;
  k : int;
  touch : frame -> view;
  arr : arr;
  rank : int;
  s0 : int;
  c0 : int;
  s1 : int;
  c1 : int;
  s2 : int;
  c2 : int;
}

(* A typed operand as its parent reads it. A leaf is read inline: an
   int scalar, a constant or a [var +- const] node is [Leaf (v, c)],
   the value [fr.ints.(v) + c] (a constant's [v] is the frame's zero
   slot), and a real scalar or constant is [Rslot] or [Rconst]. A leaf
   read can neither fail nor be seen, so the parent charges the leaf's
   units (three for [var +- const]: the node and its two leaves)
   together with the units next to it. An element read inline and a
   closure operand charge [pre], the units still pending before them,
   when they run: the element together with its own, the closure
   before it is called. A real operation reads an int operand through
   [Rint] and converts it. *)
type iopnd = Leaf of int * int | Elem of elem | Code of int * (frame -> int)

type ropnd =
  | Rslot of int
  | Rconst of float
  | Relem of elem
  | Rint of iopnd
  | Rcode of int * (frame -> float)

(* [e]'s offset in [v], once [e]'s units are charged. *)
let[@inline] offset e v fr =
  let x = fr.ints.(e.s0) + e.c0 in
  match e.rank with
  | 1 -> at1 e.arr v x
  | 2 -> at2 e.arr v x (fr.ints.(e.s1) + e.c1)
  | _ -> at3 e.arr v x (fr.ints.(e.s1) + e.c1) (fr.ints.(e.s2) + e.c2)

let[@inline] int_at st o fr =
  match o with
  | Leaf (v, c) -> fr.ints.(v) + c
  | Elem e ->
      charge_n st e.pre;
      let v = view_of fr e.k e.touch in
      v.ints.(offset e v fr)
  | Code (pre, f) -> charge_n st pre; f fr

let[@inline] real_at st o fr =
  match o with
  | Rslot v -> fr.reals.(v)
  | Rconst x -> x
  | Relem e ->
      charge_n st e.pre;
      let v = view_of fr e.k e.touch in
      v.reals.(offset e v fr)
  | Rint o -> float_of_int (int_at st o fr)
  | Rcode (pre, f) -> charge_n st pre; f fr

(* The last operand, then the [fin] units still pending after it. *)
let[@inline] int_last st o fin fr =
  let x = int_at st o fr in
  charge_n st fin;
  x

let[@inline] real_last st o fin fr =
  let x = real_at st o fr in
  charge_n st fin;
  x

(* A parent's operands are built in evaluation order; [pending] counts
   the units not charged yet: a leaf adds its own, an element or a
   closure takes them all as its [pre]. The generic path gets closures
   only. *)
let take pending =
  let pre = !pending in
  pending := 0;
  pre

(* [f] over [l] from left to right. *)
let in_order f l = List.rev (List.fold_left (fun acc x -> f x :: acc) [] l)

(* --- typed operations --------------------------------------------------- *)

(* Each operation is written out so that OCaml specializes its
   arithmetic and comparisons; [None] leaves the node to the generic
   dispatch, which reports the same error the type mismatch would.
   [fin] is what is pending after both operands, the node's own unit
   included when neither is a closure. *)
let int_binop st op a b fin =
  match op with
  | Add -> Some (I (fun fr -> let x = int_at st a fr in x + int_last st b fin fr))
  | Sub -> Some (I (fun fr -> let x = int_at st a fr in x - int_last st b fin fr))
  | Mul -> Some (I (fun fr -> let x = int_at st a fr in x * int_last st b fin fr))
  | Div ->
      Some
        (I
           (fun fr ->
             let x = int_at st a fr in
             let y = int_last st b fin fr in
             if y = 0 then error "integer division by zero" else x / y))
  | Mod ->
      Some
        (I
           (fun fr ->
             let x = int_at st a fr in
             let y = int_last st b fin fr in
             if y = 0 then error "mod by zero" else x mod y))
  | Min -> Some (I (fun fr -> let x = int_at st a fr in Int.min x (int_last st b fin fr)))
  | Max -> Some (I (fun fr -> let x = int_at st a fr in Int.max x (int_last st b fin fr)))
  | Eq -> Some (B (fun fr -> let x = int_at st a fr in x = int_last st b fin fr))
  | Ne -> Some (B (fun fr -> let x = int_at st a fr in x <> int_last st b fin fr))
  | Lt -> Some (B (fun fr -> let x = int_at st a fr in x < int_last st b fin fr))
  | Le -> Some (B (fun fr -> let x = int_at st a fr in x <= int_last st b fin fr))
  | Gt -> Some (B (fun fr -> let x = int_at st a fr in x > int_last st b fin fr))
  | Ge -> Some (B (fun fr -> let x = int_at st a fr in x >= int_last st b fin fr))
  | And | Or -> None

let real_binop st op a b fin =
  match op with
  | Add -> Some (R (fun fr -> let x = real_at st a fr in x +. real_last st b fin fr))
  | Sub -> Some (R (fun fr -> let x = real_at st a fr in x -. real_last st b fin fr))
  | Mul -> Some (R (fun fr -> let x = real_at st a fr in x *. real_last st b fin fr))
  | Div -> Some (R (fun fr -> let x = real_at st a fr in x /. real_last st b fin fr))
  | Min -> Some (R (fun fr -> let x = real_at st a fr in Float.min x (real_last st b fin fr)))
  | Max -> Some (R (fun fr -> let x = real_at st a fr in Float.max x (real_last st b fin fr)))
  | Eq -> Some (B (fun fr -> let x = real_at st a fr in x = real_last st b fin fr))
  | Ne -> Some (B (fun fr -> let x = real_at st a fr in x <> real_last st b fin fr))
  | Lt -> Some (B (fun fr -> let x = real_at st a fr in x < real_last st b fin fr))
  | Le -> Some (B (fun fr -> let x = real_at st a fr in x <= real_last st b fin fr))
  | Gt -> Some (B (fun fr -> let x = real_at st a fr in x > real_last st b fin fr))
  | Ge -> Some (B (fun fr -> let x = real_at st a fr in x >= real_last st b fin fr))
  | Mod | And | Or -> None

let bool_binop st op (fa : frame -> bool) (fb : frame -> bool) =
  match op with
  | And -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x && y))
  | Or -> Some (B (fun fr -> charge st; let x = fa fr in let y = fb fr in x || y))
  | _ -> None

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

(* [a]'s frame slot, and the function that fixes its dims on first
   touch: a parameter's payload came with the call, a local's is
   allocated zeroed. *)
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
  (k, touch)

(* The slot every typed frame keeps at 0, past the unit's scalars. *)
let zero_slot u = max u.func.Ir.Func.next_vid 1

(* [e] as [(v, c, units)] when it is an int leaf read as
   [fr.ints.(v) + c]: an int scalar, a constant (over the zero slot) or
   [var +- const], whose [x - n] is [x + (-n)] in wrapping arithmetic. *)
let int_leaf cx (e : expr) =
  let int_var (v : var) = var_ty cx.cur v = Int in
  if not cx.typed then None
  else
    match e with
    | Cint n -> Some (zero_slot cx.cur, n, 1)
    | Evar v when int_var v -> Some (v.vid, 0, 1)
    | (Ebin (Add, Evar v, Cint n) | Ebin (Add, Cint n, Evar v)) when int_var v ->
        Some (v.vid, n, 3)
    | Ebin (Sub, Evar v, Cint n) when int_var v -> Some (v.vid, -n, 3)
    | _ -> None

(* [a(idxs)] read inline, when [a] has rank 1 to 3 and every subscript
   is an int leaf. *)
let elem cx pending (a : arr) idxs =
  let subs = List.filter_map (int_leaf cx) idxs and rank = List.length idxs in
  if rank = 0 || rank > 3 || rank <> List.length a.adims || List.length subs <> rank then None
  else
    let subs = Array.of_list subs in
    let sub j = if j < rank then subs.(j) else (0, 0, 0) in
    let (s0, c0, _), (s1, c1, _), (s2, c2, _) = (sub 0, sub 1, sub 2) in
    let units = Array.fold_left (fun n (_, _, u) -> n + u) 1 subs in
    let k, touch = view cx a in
    Some { pre = take pending + units; k; touch; arr = a; rank; s0; c0; s1; c1; s2; c2 }

let int_opnd cx pending (e : expr) c =
  match (int_leaf cx e, e, c) with
  | Some (v, n, units), _, _ ->
      pending := !pending + units;
      Leaf (v, n)
  | None, Eload (a, idxs), I _ when cx.typed -> (
      match elem cx pending a idxs with
      | Some el -> Elem el
      | None -> Code (take pending, int_code c))
  | _ -> Code (take pending, int_code c)

(* Only called on I or R: the promotion of [promote_pair]. *)
let real_opnd cx pending (e : expr) c =
  match (e, c) with
  | Creal x, _ when cx.typed -> incr pending; Rconst x
  | Cint n, _ when cx.typed -> incr pending; Rconst (float_of_int n)
  | Evar v, R _ when cx.typed -> incr pending; Rslot v.vid
  | Eload (a, idxs), R _ when cx.typed -> (
      match elem cx pending a idxs with
      | Some el -> Relem el
      | None -> Rcode (take pending, real_code c))
  | _, I _ -> Rint (int_opnd cx pending e c)
  | _ -> Rcode (take pending, real_code c)

(* Subscripts the rank-1 to rank-3 paths read as operands; [] leaves the
   access to [atn] over closures (a higher rank, a rank mismatch, or
   the generic path). *)
let subscripts cx pending (a : arr) cs =
  let rank = List.length cs in
  if cx.typed && rank <= 3 && rank = List.length a.adims then
    in_order (fun (i, c) -> int_opnd cx pending i c) cs
  else []

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
  | Eload (a, idxs) -> load cx a idxs
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
  | Ebin (op, a, b) ->
      let ca = expr cx a in
      ebin cx op a b ca (expr cx b)

(* [Ebin (op, a, b)] over its operands' code. *)
and ebin cx op a b ca cb =
  let st = cx.st and pending = ref 1 in
  let typed =
    match (ca, cb) with
    | I _, I _ ->
        let oa = int_opnd cx pending a ca in
        let ob = int_opnd cx pending b cb in
        int_binop st op oa ob !pending
    | (I _ | R _), (I _ | R _) ->
        let oa = real_opnd cx pending a ca in
        let ob = real_opnd cx pending b cb in
        real_binop st op oa ob !pending
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
          binop op va vb)

(* The load's unit, its subscripts left to right, then the touch. *)
and load cx a idxs =
  let st = cx.st and k, touch = view cx a in
  let cs = List.map (fun i -> (i, expr cx i)) idxs in
  let pending = ref 1 in
  let subs = subscripts cx pending a cs in
  let fin = !pending in
  match (payload_ty cx a, subs) with
  | Int, [ i ] ->
      I
        (fun fr ->
          let x = int_last st i fin fr in
          let v = view_of fr k touch in
          v.ints.(at1 a v x))
  | Real, [ i ] ->
      R
        (fun fr ->
          let x = int_last st i fin fr in
          let v = view_of fr k touch in
          v.reals.(at1 a v x))
  | Int, [ i; j ] ->
      I
        (fun fr ->
          let x = int_at st i fr in
          let y = int_last st j fin fr in
          let v = view_of fr k touch in
          v.ints.(at2 a v x y))
  | Real, [ i; j ] ->
      R
        (fun fr ->
          let x = int_at st i fr in
          let y = int_last st j fin fr in
          let v = view_of fr k touch in
          v.reals.(at2 a v x y))
  | Int, [ i; j; l ] ->
      I
        (fun fr ->
          let x = int_at st i fr in
          let y = int_at st j fr in
          let z = int_last st l fin fr in
          let v = view_of fr k touch in
          v.ints.(at3 a v x y z))
  | Real, [ i; j; l ] ->
      R
        (fun fr ->
          let x = int_at st i fr in
          let y = int_at st j fr in
          let z = int_last st l fin fr in
          let v = view_of fr k touch in
          v.reals.(at3 a v x y z))
  | ty, _ -> (
      let is = Array.of_list (List.map (fun (_, c) -> int_code c) cs) in
      (* the offset, once the view is fixed *)
      let at fr = let xs = eval_all is fr in atn a (view_of fr k touch) xs in
      match ty with
      | Int when cx.typed -> I (fun fr -> charge st; let o = at fr in fr.arrs.(k).ints.(o))
      | Real when cx.typed -> R (fun fr -> charge st; let o = at fr in fr.arrs.(k).reals.(o))
      | _ -> V (fun fr -> charge st; let o = at fr in fr.arrs.(k).vals.(o)))

let trap_message (m : check_meta) =
  Fmt.str "range check failed: %s dimension %d (%s bound): %a" m.src_array m.src_dim
    (match m.kind with Lower -> "lower" | Upper -> "upper")
    Check.pp m.chk

(* A canonical check: count it, sum its linear terms, compare. A
   variable atom is read, not charged. *)
let check cx (m : check_meta) =
  let st = cx.st in
  let pending = ref 1 in
  let term (atom, coeff) =
    ( coeff,
      match Ir.Atoms.payload cx.cur.func.Ir.Func.atoms (Atom.key atom) with
      | Some (Ir.Atoms.Avar v) when cx.typed && var_ty cx.cur v = Int -> Leaf (v.vid, 0)
      | Some (Ir.Atoms.Avar v) -> Code (take pending, var_int cx v)
      | Some (Ir.Atoms.Aopaque e) -> int_opnd cx pending e (expr cx e)
      | None ->
          Code
            ( take pending,
              fun _ -> error ("unknown atom " ^ Atom.name atom ^ " in an executed check") ) )
  in
  let terms =
    Array.of_list (in_order term (Nascent_checks.Linexpr.terms (Check.lhs m.chk)))
  in
  let fin = !pending and k = Check.constant m.chk in
  let fail () = raise (Trap (trap_message m)) in
  match terms with
  | [| (c, r) |] ->
      fun fr ->
        st.checks <- st.checks + 1;
        if c * int_last st r fin fr > k then fail ()
  | [| (c, r); (c', r') |] ->
      fun fr ->
        st.checks <- st.checks + 1;
        let s = c * int_at st r fr in
        if s + (c' * int_last st r' fin fr) > k then fail ()
  | _ ->
      fun fr ->
        st.checks <- st.checks + 1;
        let s = ref 0 in
        Array.iter (fun (c, r) -> s := !s + (c * int_at st r fr)) terms;
        charge_n st fin;
        if !s > k then fail ()

(* --- assignments and stores ------------------------------------------------ *)

(* The value an assignment or a store reads: one operand, or a sum,
   difference or product of two, computed in the target's type and read
   without its node's closure. *)
type 'a value = One of 'a | Two of binop * 'a * 'a

type typed_value = Ival of iopnd value | Rval of ropnd value

let[@inline] int_value st w fin fr =
  match w with
  | One o -> int_last st o fin fr
  | Two (op, a, b) -> (
      let x = int_at st a fr in
      let y = int_last st b fin fr in
      match op with Add -> x + y | Sub -> x - y | _ -> x * y)

let[@inline] real_value st w fin fr =
  match w with
  | One o -> real_last st o fin fr
  | Two (op, a, b) -> (
      let x = real_at st a fr in
      let y = real_last st b fin fr in
      match op with Add -> x +. y | Sub -> x -. y | _ -> x *. y)

(* [e] as the value of a typed store into a [ty] target; [None] if it
   does not fit. A [Two]'s node unit is pending before its operands,
   where its closure would charge it. *)
let value cx pending ty (e : expr) =
  let one c =
    match (ty, c) with
    | Int, I _ -> Some (Ival (One (int_opnd cx pending e c)))
    | Real, (I _ | R _) -> Some (Rval (One (real_opnd cx pending e c)))
    | _ -> None
  in
  match e with
  | Ebin (((Add | Sub | Mul) as op), a, b) -> (
      let ca = expr cx a in
      let cb = expr cx b in
      match (ty, ca, cb) with
      | Int, I _, I _ ->
          incr pending;
          let oa = int_opnd cx pending a ca in
          Some (Ival (Two (op, oa, int_opnd cx pending b cb)))
      | Real, (I _ | R _), R _ | Real, R _, I _ ->
          incr pending;
          let oa = real_opnd cx pending a ca in
          Some (Rval (Two (op, oa, real_opnd cx pending b cb)))
      | _ -> one (ebin cx op a b ca cb))
  | _ -> one (expr cx e)

(* The value, then the assignment's unit. *)
let assign cx (v : var) e =
  let st = cx.st and vid = v.vid in
  if not cx.typed then
    let f = value_code (expr cx e) in
    fun fr ->
      let x = f fr in
      charge st;
      fr.vals.(vid) <- assignable v.vty x
  else
    let pending = ref 0 in
    match value cx pending (var_ty cx.cur v) e with
    | Some (Ival w) ->
        let fin = !pending + 1 in
        fun fr -> fr.ints.(vid) <- int_value st w fin fr
    | Some (Rval w) ->
        let fin = !pending + 1 in
        fun fr -> fr.reals.(vid) <- real_value st w fin fr
    | None -> raise Ill_typed

(* Subscripts, then the value, then the store's unit, then the touch. *)
let store cx a idxs e =
  let st = cx.st and k, touch = view cx a in
  let cs = List.map (fun i -> (i, expr cx i)) idxs in
  let ty = payload_ty cx a in
  let is = Array.of_list (List.map (fun (_, c) -> int_code c) cs) in
  if not cx.typed then
    let f = value_code (expr cx e) in
    fun fr ->
      let xs = eval_all is fr in
      let x = f fr in
      charge st;
      let v = view_of fr k touch in
      v.vals.(atn a v xs) <- assignable ty x
  else
    let pending = ref 0 in
    let subs = subscripts cx pending a cs in
    match value cx pending ty e with
    | Some (Ival w) -> (
        let fin = !pending + 1 in
        match subs with
        | [ i ] ->
            fun fr ->
              let x = int_at st i fr in
              let y = int_value st w fin fr in
              let v = view_of fr k touch in
              v.ints.(at1 a v x) <- y
        | [ i; j ] ->
            fun fr ->
              let x = int_at st i fr in
              let x' = int_at st j fr in
              let y = int_value st w fin fr in
              let v = view_of fr k touch in
              v.ints.(at2 a v x x') <- y
        | [ i; j; l ] ->
            fun fr ->
              let x = int_at st i fr in
              let x' = int_at st j fr in
              let x'' = int_at st l fr in
              let y = int_value st w fin fr in
              let v = view_of fr k touch in
              v.ints.(at3 a v x x' x'') <- y
        | _ ->
            fun fr ->
              let xs = eval_all is fr in
              let y = int_value st w fin fr in
              let v = view_of fr k touch in
              v.ints.(atn a v xs) <- y)
    | Some (Rval w) -> (
        let fin = !pending + 1 in
        match subs with
        | [ i ] ->
            fun fr ->
              let x = int_at st i fr in
              let y = real_value st w fin fr in
              let v = view_of fr k touch in
              v.reals.(at1 a v x) <- y
        | [ i; j ] ->
            fun fr ->
              let x = int_at st i fr in
              let x' = int_at st j fr in
              let y = real_value st w fin fr in
              let v = view_of fr k touch in
              v.reals.(at2 a v x x') <- y
        | [ i; j; l ] ->
            fun fr ->
              let x = int_at st i fr in
              let x' = int_at st j fr in
              let x'' = int_at st l fr in
              let y = real_value st w fin fr in
              let v = view_of fr k touch in
              v.reals.(at3 a v x x' x'') <- y
        | _ ->
            fun fr ->
              let xs = eval_all is fr in
              let y = real_value st w fin fr in
              let v = view_of fr k touch in
              v.reals.(atn a v xs) <- y)
    | None -> raise Ill_typed

let new_frame ~typed u =
  let n = max u.func.Ir.Func.next_vid 1 in
  if typed then
    let reals = Hashtbl.fold (fun _ t acc -> acc || t = Real) u.vtys false in
    fun () ->
      {
        ints = Array.make (zero_slot u + 1) 0;
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
      let k, touch = view cx a and k' = slot callee p.aid in
      fun fr cf ->
        let v = view_of fr k touch in
        cf.arrs.(k') <- { unfixed with ints = v.ints; reals = v.reals; vals = v.vals; size = v.size }
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
                    let k, touch = view cx a in
                    fun fr -> ignore (view_of fr k touch))
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
  | Assign (v, e) -> assign cx v e
  | Store (a, idxs, e) -> store cx a idxs e
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

(* --- threaded blocks ------------------------------------------------------ *)

(* A block's closure, stored once every block is compiled; a jump reads
   its target's cell when it runs. *)
type cell = (frame -> unit) ref

(* [instrs], then [k] as a tail call. *)
let seq instrs (k : frame -> unit) =
  match instrs with
  | [||] -> k
  | [| a |] -> fun fr -> a fr; k fr
  | [| a; b |] -> fun fr -> a fr; b fr; k fr
  | [| a; b; c |] -> fun fr -> a fr; b fr; c fr; k fr
  | _ ->
      fun fr ->
        for j = 0 to Array.length instrs - 1 do
          instrs.(j) fr
        done;
        k fr

(* [instrs], the terminator's unit, then a tail call to [next]: [seq]
   with the jump inlined. *)
let goto st instrs (next : cell) =
  match instrs with
  | [||] -> fun fr -> charge st; !next fr
  | [| a |] -> fun fr -> a fr; charge st; !next fr
  | [| a; b |] -> fun fr -> a fr; b fr; charge st; !next fr
  | [| a; b; c |] -> fun fr -> a fr; b fr; c fr; charge st; !next fr
  | _ ->
      fun fr ->
        for j = 0 to Array.length instrs - 1 do
          instrs.(j) fr
        done;
        charge st;
        !next fr

(* The terminator's unit, the condition, then a tail call to [t] or
   [e]. An int comparison reads its operands itself, with the
   terminator's unit and its own pending before them. *)
let branch cx (c : expr) (t : cell) (e : cell) : frame -> unit =
  let st = cx.st in
  let on_bool c = fun fr -> charge st; if c fr then !t fr else !e fr in
  match c with
  | Ebin (op, a, b) -> (
      let ca = expr cx a in
      let cb = expr cx b in
      match (op, ca, cb) with
      | (Eq | Ne | Lt | Le | Gt | Ge), I _, I _ -> (
          let pending = ref 2 in
          let oa = int_opnd cx pending a ca in
          let ob = int_opnd cx pending b cb in
          let fin = !pending in
          match op with
          | Eq -> fun fr ->
              let x = int_at st oa fr in
              if x = int_last st ob fin fr then !t fr else !e fr
          | Ne -> fun fr ->
              let x = int_at st oa fr in
              if x <> int_last st ob fin fr then !t fr else !e fr
          | Lt -> fun fr ->
              let x = int_at st oa fr in
              if x < int_last st ob fin fr then !t fr else !e fr
          | Le -> fun fr ->
              let x = int_at st oa fr in
              if x <= int_last st ob fin fr then !t fr else !e fr
          | Gt -> fun fr ->
              let x = int_at st oa fr in
              if x > int_last st ob fin fr then !t fr else !e fr
          | _ -> fun fr ->
              let x = int_at st oa fr in
              if x >= int_last st ob fin fr then !t fr else !e fr)
      | _ -> on_bool (bool_code (ebin cx op a b ca cb)))
  | _ -> on_bool (bool_code (expr cx c))

let block cx cells (b : block) : frame -> unit =
  let instrs = Array.of_list (List.map (instr cx) b.instrs) in
  match b.term with
  | Goto l -> goto cx.st instrs cells.(l)
  | Branch (c, t, e) -> seq instrs (branch cx c cells.(t) cells.(e))
  | Ret ->
      let st = cx.st in
      seq instrs (fun _ -> charge st)

(* Every block's closure, then the entry's. *)
let body cx =
  let f = cx.cur.func in
  let cells = Array.init (Ir.Func.num_blocks f) (fun _ -> ref ignore) in
  Array.iteri (fun bid cell -> cell := block cx cells (Ir.Func.block f bid)) cells;
  !(cells.(f.Ir.Func.entry))

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
