(** AST -> IR lowering with naive range-check insertion.

    Every array access gets a lower and an upper canonical check per
    dimension, emitted immediately before the access — the
    "unoptimized range checking" measured in Table 1. Counted loops are
    lowered with an explicit preheader, bounds captured once in fresh
    temps (Fortran's once-only trip evaluation); while loops get a
    preheader directly preceding their test. Symbolic array bounds are
    evaluated into entry temps, hash-consed per bound expression so
    same-extent arrays share one check family. *)

exception Lower_error of string

val lower_program : Nascent_frontend.Sema.env -> Program.t

val of_source : string -> Program.t
(** Parse, type-check and lower; raises on any frontend error
    ([Failure]) or lowering error ({!Lower_error}). *)
