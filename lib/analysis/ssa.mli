(** SSA overlay.

    Rather than rewriting the IR into SSA form, this module computes
    the SSA name structure {e about} the IR: definitions (entry values,
    assignments, phi nodes placed on dominance frontiers) and, per
    instruction site, the environment mapping each variable to its
    reaching definition. Induction variable analysis (paper section
    2.3) and the INX check rewriting are the clients.

    Only reachable blocks are renamed; sites in unreachable blocks have
    no snapshot. *)

open Nascent_ir.Types

type def_id = int

type def_desc =
  | Dentry of var  (** the value on function entry (parameter or zero) *)
  | Dassign of { bid : int; idx : int; v : var; rhs : expr }
  | Dphi of { bid : int; v : var; mutable args : (int * def_id) list }
      (** args: (predecessor block, reaching def along that edge) *)

type t

val compute : Nascent_ir.Func.t -> t

val def : t -> def_id -> def_desc
val var_of_def : t -> def_id -> var

val def_block : t -> def_id -> int option
(** The block holding the definition; [None] for entry values. *)

val snapshot : t -> bid:int -> idx:int -> int array option
(** The environment [vid -> def id] {e before} instruction [idx] of
    block [bid] executes (the block's phis already applied); [None] for
    unreachable sites. *)

val phis_at : t -> int -> (int * def_id) list
(** The phis placed at a block, as [(vid, def id)] pairs. *)
