(* Availability and anticipatability of checks (paper section 3.2).

   Both are *must* data-flow problems over the frozen check universe:
   - availability (forward): a check statement generates itself and all
     checks it implies (mode-permitting); a definition of any symbol of
     a check's range expression kills it;
   - anticipatability (backward): generation is restricted to weaker
     checks *of the same family* — the paper's stronger condition that
     keeps insertion points below the definitions of a check's symbols.

   A [Cond_check] generates nothing: its guard may be false, and then
   it performs no check. *)

module Ir = Nascent_ir
module Bitset = Nascent_support.Bitset
module Universe = Nascent_checks.Universe
module Dataflow = Nascent_analysis.Dataflow

type env = { ctx : Checkctx.t; uni : Universe.t }

let make_env ctx = { ctx; uni = Checkctx.universe ctx }

let n_checks env = Universe.size env.uni

(* The transfer of a block, composed instruction by instruction in
   place: kill-then-gen steps compose as
     K := K ∪ Ki;  G := (G \ Ki) ∪ Gi  (then K := K \ Gi),
   and Ki, the union of the universe's per-atom kill sets, is applied
   one atom at a time, so no per-instruction set is built. The helpers
   are top-level recursions rather than closures over [tf]: they run
   once per instruction of every block, on every rebuild. *)
let rec kill (tf : Dataflow.block_transfer) uni = function
  | [] -> ()
  | k :: keys ->
      let s = Universe.killed_by_key uni k in
      Bitset.diff_into ~into:tf.gen s;
      Bitset.union_into ~into:tf.kill s;
      kill tf uni keys

(* Checks generated by check [m]: itself and what it implies, for
   availability (avail_gen) or within its family, for anticipatability
   (ant_gen). *)
let gen (tf : Dataflow.block_transfer) env ~ant (m : Ir.Types.check_meta) =
  match Universe.index_of env.uni m.Ir.Types.chk with
  | None -> ()
  | Some j ->
      let g = if ant then Universe.ant_gen env.uni j else Universe.avail_gen env.uni j in
      Bitset.union_into ~into:tf.gen g;
      Bitset.diff_into ~into:tf.kill g

let step tf env ~ant (i : Ir.Types.instr) =
  kill tf env.uni (Checkctx.kill_keys env.ctx i);
  match i with Ir.Types.Check m -> gen tf env ~ant m | _ -> ()

let rec forward tf env = function
  | [] -> ()
  | i :: rest ->
      step tf env ~ant:false i;
      forward tf env rest

(* last instruction first, on the stack rather than a reversed copy *)
let rec backward tf env = function
  | [] -> ()
  | i :: rest ->
      backward tf env rest;
      step tf env ~ant:true i

let block_transfer env ~ant (b : Ir.Types.block) : Dataflow.block_transfer =
  let n = n_checks env in
  let tf = { Dataflow.gen = Bitset.create n; kill = Bitset.create n } in
  if ant then backward tf env b.Ir.Types.instrs else forward tf env b.Ir.Types.instrs;
  tf

let transfers env ~ant : Dataflow.block_transfer array =
  let f = env.ctx.Checkctx.func in
  Array.init (Ir.Func.num_blocks f) (fun bid ->
      block_transfer env ~ant (Ir.Func.block f bid))

(* Forward availability: AVIN/AVOUT per block. *)
let availability env : Dataflow.result =
  let f = env.ctx.Checkctx.func in
  Dataflow.solve f ~universe:(n_checks env) ~direction:Dataflow.Forward
    ~boundary:(Bitset.create (n_checks env))
    ~transfer:(transfers env ~ant:false)

(* Backward anticipatability. The solver's [in_]/[out] are named by
   *program* position: [result.in_.(b)] is the value at block entry
   (ANTIN), [result.out.(b)] at block exit (ANTOUT). *)
let anticipatability env : Dataflow.result =
  let f = env.ctx.Checkctx.func in
  Dataflow.solve f ~universe:(n_checks env) ~direction:Dataflow.Backward
    ~boundary:(Bitset.create (n_checks env))
    ~transfer:(transfers env ~ant:true)
