(** Human-readable dump of the IR, in the notation of the paper's
    figures: [Check (e <= k)] and [Cond-check (g, e <= k)]. *)

val pp_instr : Types.instr Fmt.t
val func_to_string : Func.t -> string
val program_to_string : Program.t -> string
