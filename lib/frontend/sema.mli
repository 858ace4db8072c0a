(** Semantic analysis for MiniF: symbol tables and type checking.

    Enforced rules the optimizer relies on:
    - scalars pass to subroutines by value, arrays by reference — a
      deliberate simplification of Fortran's uniform by-reference rule
      that keeps scalar data flow alias-free;
    - a do index may not be assigned inside its loop nor reused by a
      nested do (Fortran's rule; the assumption behind loop-limit
      substitution);
    - subscripts and array bounds are integer expressions; conditions
      are logical; numeric types mix int -> real only. *)

type sym_ty = Ast.ty

type sym = Scalar of sym_ty | Array of sym_ty * Ast.dim list

type unit_env = {
  syms : (string, sym) Hashtbl.t;
  params : string list;  (** declaration order; [] for the main unit *)
  unit_ast : Ast.comp_unit;
}

type env = {
  units : (string, unit_env) Hashtbl.t;
  main : string;  (** name of the main program unit *)
}

type error = { msg : string; at : Srcloc.t }

val check : Ast.program -> (env, error list) result
val pp_error : error Fmt.t
