(* IR expression utilities. *)

open Types

let rec vars_of ?(acc = []) (e : expr) : var list =
  match e with
  | Cint _ | Creal _ | Cbool _ -> acc
  | Evar v -> if List.exists (fun w -> w.vid = v.vid) acc then acc else v :: acc
  | Eload (_, idxs) -> List.fold_left (fun acc i -> vars_of ~acc i) acc idxs
  | Eun (_, a) -> vars_of ~acc a
  | Ebin (_, a, b) -> vars_of ~acc:(vars_of ~acc a) b

(* Does the expression read any array element? Matters for invariance:
   stores can change loads even when no scalar is redefined. *)
let rec has_load = function
  | Cint _ | Creal _ | Cbool _ | Evar _ -> false
  | Eload _ -> true
  | Eun (_, a) -> has_load a
  | Ebin (_, a, b) -> has_load a || has_load b

(* Node count, used as the interpreter's per-evaluation instruction
   charge: one "instruction" per operator/operand node. *)
let rec size = function
  | Cint _ | Creal _ | Cbool _ | Evar _ -> 1
  | Eload (_, idxs) -> 1 + List.fold_left (fun s i -> s + size i) 0 idxs
  | Eun (_, a) -> 1 + size a
  | Ebin (_, a, b) -> 1 + size a + size b

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "mod"
  | Min -> "min"
  | Max -> "max"
  | Eq -> "="
  | Ne -> "/="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "and"
  | Or -> "or"

let rec pp ppf (e : expr) =
  match e with
  | Cint n -> Fmt.int ppf n
  | Creal f -> Fmt.float ppf f
  | Cbool b -> Fmt.bool ppf b
  | Evar v -> Fmt.string ppf v.vname
  | Eload (a, idxs) -> Fmt.pf ppf "%s(%a)" a.aname Fmt.(list ~sep:comma pp) idxs
  | Eun (Neg, a) -> Fmt.pf ppf "(-%a)" pp a
  | Eun (Not, a) -> Fmt.pf ppf "(not %a)" pp a
  | Eun (Abs, a) -> Fmt.pf ppf "abs(%a)" pp a
  | Ebin ((Mod | Min | Max) as op, a, b) ->
      Fmt.pf ppf "%s(%a, %a)" (binop_name op) pp a pp b
  | Ebin (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (binop_name op) pp b

(* Structural equality; used for hash-consing opaque atoms and for
   guard deduplication. (Polymorphic equality would also work but this
   is explicit about float comparison.) *)
let rec equal (a : expr) (b : expr) =
  match (a, b) with
  | Cint x, Cint y -> x = y
  | Creal x, Creal y -> Float.equal x y
  | Cbool x, Cbool y -> x = y
  | Evar x, Evar y -> x.vid = y.vid
  | Eload (x, xi), Eload (y, yi) ->
      x.aid = y.aid && List.length xi = List.length yi && List.for_all2 equal xi yi
  | Eun (ox, x), Eun (oy, y) -> ox = oy && equal x y
  | Ebin (ox, xa, xb), Ebin (oy, ya, yb) -> ox = oy && equal xa ya && equal xb yb
  | _ -> false

(* Constant folding of the operators the lowerer produces for guards
   and bounds; used by step 5 (compile-time checks) and by guard
   simplification. *)
let rec fold (e : expr) : expr =
  match e with
  | Cint _ | Creal _ | Cbool _ | Evar _ -> e
  | Eload (a, idxs) -> Eload (a, List.map fold idxs)
  | Eun (op, a) -> (
      let a = fold a in
      match (op, a) with
      | Neg, Cint n -> Cint (-n)
      | Neg, Creal f -> Creal (-.f)
      | Not, Cbool b -> Cbool (not b)
      | Abs, Cint n -> Cint (abs n)
      | Abs, Creal f -> Creal (Float.abs f)
      | _ -> Eun (op, a))
  | Ebin (op, a, b) -> (
      let a = fold a and b = fold b in
      match (op, a, b) with
      | Add, Cint x, Cint y -> Cint (x + y)
      | Sub, Cint x, Cint y -> Cint (x - y)
      | Mul, Cint x, Cint y -> Cint (x * y)
      | Div, Cint x, Cint y when y <> 0 -> Cint (x / y)
      | Mod, Cint x, Cint y when y <> 0 -> Cint (x mod y)
      | Min, Cint x, Cint y -> Cint (min x y)
      | Max, Cint x, Cint y -> Cint (max x y)
      | Eq, Cint x, Cint y -> Cbool (x = y)
      | Ne, Cint x, Cint y -> Cbool (x <> y)
      | Lt, Cint x, Cint y -> Cbool (x < y)
      | Le, Cint x, Cint y -> Cbool (x <= y)
      | Gt, Cint x, Cint y -> Cbool (x > y)
      | Ge, Cint x, Cint y -> Cbool (x >= y)
      | And, Cbool x, Cbool y -> Cbool (x && y)
      | And, Cbool true, e | And, e, Cbool true -> e
      | And, Cbool false, _ | And, _, Cbool false -> Cbool false
      | Or, Cbool x, Cbool y -> Cbool (x || y)
      | Or, Cbool false, e | Or, e, Cbool false -> e
      | Or, Cbool true, _ | Or, _, Cbool true -> Cbool true
      | _ -> Ebin (op, a, b))
