(* Runtime values of the instrumented interpreter. *)

type t = VInt of int | VReal of float | VBool of bool

let pp ppf = function
  | VInt n -> Fmt.int ppf n
  | VReal f -> Fmt.pf ppf "%.6g" f
  | VBool b -> Fmt.bool ppf b

let equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VReal x, VReal y -> Float.equal x y
  | VBool x, VBool y -> x = y
  | _ -> false

let zero_of_ty : Nascent_ir.Types.ty -> t = function
  | Nascent_ir.Types.Int -> VInt 0
  | Nascent_ir.Types.Real -> VReal 0.0
  | Nascent_ir.Types.Bool -> VBool false
