(* Per-function optimization context.

   Abstracts over the PRX/INX axis: every analysis and placement pass
   asks the context (a) which *analysis check* a check instruction
   denotes and (b) which atom keys an instruction (or a block entry)
   kills. Under PRX the analysis check is the instruction's own
   canonical check; under INX it is the induction-expression rewriting
   provided by the induction-analysis overlay. *)

module Ir = Nascent_ir
module Check = Nascent_checks.Check
module Cig = Nascent_checks.Cig
module Universe = Nascent_checks.Universe
module Loops = Nascent_analysis.Loops

type t = {
  func : Ir.Func.t;
  mutable loops : Loops.loop list; (* innermost-first; see [refresh] *)
  mutable loops_num_blocks : int; (* block count [loops] was computed at *)
  cig : Cig.t;
  mode : Universe.mode;
  oracle : Ir.Validate.Cache.t option;
  site_check : Ir.Types.check_meta -> Check.t;
  instr_kill_keys : Ir.Types.instr -> int list;
  block_entry_kill_keys : int -> int list;
}

let prx_kills (atoms : Ir.Atoms.t) (i : Ir.Types.instr) : int list =
  match i with
  | Ir.Types.Assign (v, _) -> Ir.Atoms.killed_by_def atoms v
  | Ir.Types.Store _ | Ir.Types.Call _ -> Ir.Atoms.killed_by_store atoms
  | _ -> []

let create_prx ~mode ?oracle ?loops (func : Ir.Func.t) : t =
  {
    func;
    loops = (match loops with Some l -> l | None -> Loops.compute func);
    loops_num_blocks = Ir.Func.num_blocks func;
    cig = Cig.create ();
    mode;
    oracle;
    site_check = (fun m -> m.Ir.Types.chk);
    instr_kill_keys = prx_kills func.Ir.Func.atoms;
    block_entry_kill_keys = (fun _ -> []);
  }

(* The context is built once per function (canonicalizing every check
   and interning families is the expensive part) and shared by all
   passes; only the loop structure can go stale — edge splitting adds
   blocks — so recompute it exactly when the block count moved. *)
let refresh (t : t) : unit =
  let n = Ir.Func.num_blocks t.func in
  if n <> t.loops_num_blocks then begin
    t.loops <- Loops.compute t.func;
    t.loops_num_blocks <- n
  end

(* Build the frozen check universe from the checks currently present in
   the function (placement passes rebuild it after inserting). *)
let universe (t : t) : Universe.t =
  let metas = Ir.Func.all_check_metas t.func in
  Universe.build ~cig:t.cig ~mode:t.mode
    ?oracle:(Option.map Ir.Validate.Cache.oracle t.oracle)
    (List.map t.site_check metas)
