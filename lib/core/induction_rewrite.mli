(** INX pre-pass (paper section 2.3): rewrite each check's canonical
    form into {e induction-expression} form.

    Every program-variable term of a check's range expression is
    resolved by {!Nascent_analysis.Induction} into basic-loop-variable
    plus stable-leaf form; if all terms resolve, the check instruction
    is replaced in place by the equivalent induction-expression check.
    Needed basic variables are {e materialized} as real variables
    (h = 0 in the preheader, h = h + 1 in each latch), so rewritten
    checks stay executable and the ordinary kill rules apply.

    After this pass the whole PRX machinery runs unchanged on the
    rewritten checks — that is what the INX configuration axis means. *)

val run : Nascent_ir.Func.t -> Nascent_analysis.Loops.loop list
(** Rewrite [f] in place and return its natural loops after the
    rewrite, as {!Nascent_analysis.Loops.compute} would find them: the
    materialized assignments are among their definitions. *)
