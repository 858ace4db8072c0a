(** Runtime values of the instrumented interpreter. *)

type t = VInt of int | VReal of float | VBool of bool

val pp : t Fmt.t
val equal : t -> t -> bool
val zero_of_ty : Nascent_ir.Types.ty -> t
