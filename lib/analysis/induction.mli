(** SSA-based induction variable analysis (paper section 2.3, after
    Gerlek/Stoltz/Wolfe).

    Every natural loop has a {e basic loop variable} h taking values
    0, 1, 2, ... per iteration. {!classify} grades a definition against
    its loop; {!form_of_var} resolves the value of a variable at a
    program site into the canonical {e induction expression}

    {v sum of coeff * h_L (one per enclosing loop L)
   + sum of stable leaf definitions + constant v}

    validated against the site's SSA environment: every leaf is a
    definition whose variable still holds that value at the site, so
    the form can be evaluated there. This is exactly what the INX check
    rewriting needs. *)

open Nascent_ir.Types

type iv_class =
  | Inv  (** value does not change across iterations *)
  | Linear of { step : int; init : Ssa.def_id }
      (** value = init + step * h, constant integer step *)
  | Polynomial
      (** a recurrence whose increment is itself linear (Figure 2's
          [k*(k+1)/2] shape) *)
  | Unknown

type leaf =
  | Ldef of Ssa.def_id  (** a stable definition, read via its variable *)
  | Lbasic of int  (** the basic variable of the loop with this header *)

type linear_form = { leaves : (leaf * int) list; const : int }

val is_identity_leaf : Ssa.def_id -> linear_form -> bool
(** Is the form just the definition itself (no rewriting gained)? *)

val classify : Ssa.t -> Loops.loop -> Ssa.def_id -> iv_class
(** Classification of a definition relative to one loop (the paper's
    Figure 2 table). *)

val form_of_var :
  Ssa.t -> Loops.loop list -> site_env:int array -> var -> linear_form option
(** The induction form of variable [v]'s value at a site; [loops] are
    the loops enclosing the site, innermost first. [None] when the
    value cannot be expressed over stable leaves and basic variables. *)

val trip_count_expr : do_info -> expr
(** The trip count of a counted loop as a foldable expression:
    [max(0, (hi - lo + step) / step)] for positive step. *)
