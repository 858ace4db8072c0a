(* Per-function optimization context: the function, its loops and the
   check table every analysis and placement pass consults, built on the
   compile's interned checks. *)

module Ir = Nascent_ir
module Universe = Nascent_checks.Universe
module Loops = Nascent_analysis.Loops

type t = {
  func : Ir.Func.t;
  mutable loops : Loops.loop list; (* innermost-first; see [refresh] *)
  mutable loops_num_blocks : int; (* block count [loops] was computed at *)
  table : Universe.t;
  mutable present : Nascent_support.Bitset.t;
}

let create ~mode ~oracle ~pool ?loops (func : Ir.Func.t) : t =
  {
    func;
    loops = (match loops with Some l -> l | None -> Loops.compute func);
    loops_num_blocks = Ir.Func.num_blocks func;
    table = Universe.create ~mode ~oracle pool;
    present = Nascent_support.Bitset.create 0;
  }

(* The context is built once per function and shared by all passes;
   only the loop structure can go stale — edge splitting adds blocks —
   so recompute it exactly when the block count moved. *)
let refresh (t : t) : unit =
  let n = Ir.Func.num_blocks t.func in
  if n <> t.loops_num_blocks then begin
    t.loops <- Loops.compute t.func;
    t.loops_num_blocks <- n
  end

let universe (t : t) : Universe.t =
  t.present <-
    Universe.sync t.table (List.map (fun m -> m.Ir.Types.chk) (Ir.Func.all_check_metas t.func));
  t.table
