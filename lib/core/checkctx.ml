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

type counts = {
  mutable strengthened : int;
  mutable pre_inserted : int;
  mutable hoisted_invariant : int;
  mutable hoisted_linear : int;
  mutable guards_inserted : int;
  mutable plain_inserted : int;
  mutable redundant_deleted : int;
  mutable compile_time_deleted : int;
  mutable compile_time_traps : int;
}

let counts () =
  {
    strengthened = 0;
    pre_inserted = 0;
    hoisted_invariant = 0;
    hoisted_linear = 0;
    guards_inserted = 0;
    plain_inserted = 0;
    redundant_deleted = 0;
    compile_time_deleted = 0;
    compile_time_traps = 0;
  }

let add_counts ~into c =
  into.strengthened <- into.strengthened + c.strengthened;
  into.pre_inserted <- into.pre_inserted + c.pre_inserted;
  into.hoisted_invariant <- into.hoisted_invariant + c.hoisted_invariant;
  into.hoisted_linear <- into.hoisted_linear + c.hoisted_linear;
  into.guards_inserted <- into.guards_inserted + c.guards_inserted;
  into.plain_inserted <- into.plain_inserted + c.plain_inserted;
  into.redundant_deleted <- into.redundant_deleted + c.redundant_deleted;
  into.compile_time_deleted <- into.compile_time_deleted + c.compile_time_deleted;
  into.compile_time_traps <- into.compile_time_traps + c.compile_time_traps
