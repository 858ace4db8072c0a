(* Per-function optimization context: the function, its loops, the
   implication mode and the oracle cache every analysis and placement
   pass consults. *)

module Ir = Nascent_ir
module Universe = Nascent_checks.Universe
module Loops = Nascent_analysis.Loops

type t = {
  func : Ir.Func.t;
  mutable loops : Loops.loop list; (* innermost-first; see [refresh] *)
  mutable loops_num_blocks : int; (* block count [loops] was computed at *)
  mode : Universe.mode;
  oracle : Ir.Validate.Cache.t option;
}

let create ~mode ?oracle ?loops (func : Ir.Func.t) : t =
  {
    func;
    loops = (match loops with Some l -> l | None -> Loops.compute func);
    loops_num_blocks = Ir.Func.num_blocks func;
    mode;
    oracle;
  }

let kill_keys (t : t) (i : Ir.Types.instr) : int list =
  match i with
  | Ir.Types.Assign (v, _) -> Ir.Atoms.killed_by_def t.func.Ir.Func.atoms v
  | Ir.Types.Store _ | Ir.Types.Call _ -> Ir.Atoms.killed_by_store t.func.Ir.Func.atoms
  | _ -> []

(* The context is built once per function and shared by all passes;
   only the loop structure can go stale — edge splitting adds blocks —
   so recompute it exactly when the block count moved. *)
let refresh (t : t) : unit =
  let n = Ir.Func.num_blocks t.func in
  if n <> t.loops_num_blocks then begin
    t.loops <- Loops.compute t.func;
    t.loops_num_blocks <- n
  end

(* Build the frozen check universe from the checks currently present in
   the function (placement passes rebuild it after inserting). *)
let universe (t : t) : Universe.t =
  Universe.build ~mode:t.mode
    ?oracle:(Option.map Ir.Validate.Cache.oracle t.oracle)
    (List.map (fun m -> m.Ir.Types.chk) (Ir.Func.all_check_metas t.func))
