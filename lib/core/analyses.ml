(* Availability and anticipatability of checks (paper section 3.2).

   Both are *must* data-flow problems over the compile's check table:
   - availability (forward): a check statement generates itself and all
     checks it implies (mode-permitting); a definition of any symbol of
     a check's range expression kills it;
   - anticipatability (backward): generation is restricted to weaker
     checks *of the same family* — the paper's stronger condition that
     keeps insertion points below the definitions of a check's symbols.

   A [Cond_check] generates nothing: its guard may be false, and then
   it performs no check.

   The table keeps the ids of checks a pass deleted. The problems are
   solved from the present checks, not from the full table, and a
   block generates only present checks, so a gone check's bit is 0
   everywhere: it can never flip at a revisit and make the engine
   visit a block that no present bit would. *)

module Ir = Nascent_ir
module Bitset = Nascent_support.Bitset
module Universe = Nascent_checks.Universe
module Intern = Nascent_checks.Intern
module Dataflow = Nascent_analysis.Dataflow

(* The transfer of a block, composed instruction by instruction in
   place: kill-then-gen steps compose as
     K := K ∪ Ki;  G := (G \ Ki) ∪ Gi  (then K := K \ Gi),
   and Ki, the union of the table's per-atom kill sets, is applied one
   atom at a time, so no per-instruction set is built. The helpers are
   top-level recursions rather than closures over [tf]: they run once
   per instruction of every block, on every solve. *)
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
let gen (tf : Dataflow.block_transfer) uni ~ant (m : Ir.Types.check_meta) =
  let j = Intern.id (Universe.pool uni) m.Ir.Types.chk in
  let g = if ant then Universe.ant_gen uni j else Universe.avail_gen uni j in
  Bitset.union_into ~into:tf.gen g;
  Bitset.diff_into ~into:tf.kill g

let step tf uni atoms ~ant (i : Ir.Types.instr) =
  kill tf uni (Ir.Atoms.killed_by atoms i);
  match i with Ir.Types.Check m -> gen tf uni ~ant m | _ -> ()

let rec forward tf uni atoms = function
  | [] -> ()
  | i :: rest ->
      step tf uni atoms ~ant:false i;
      forward tf uni atoms rest

(* last instruction first, on the stack rather than a reversed copy *)
let rec backward tf uni atoms = function
  | [] -> ()
  | i :: rest ->
      backward tf uni atoms rest;
      step tf uni atoms ~ant:true i

let solve (ctx : Checkctx.t) ~ant : Dataflow.result =
  let f = ctx.Checkctx.func and uni = ctx.Checkctx.table in
  let n = Universe.size uni in
  let transfer =
    Array.init (Ir.Func.num_blocks f) (fun bid ->
        let tf = { Dataflow.gen = Bitset.create n; kill = Bitset.create n } in
        let instrs = (Ir.Func.block f bid).Ir.Types.instrs in
        if ant then backward tf uni f.Ir.Func.atoms instrs
        else forward tf uni f.Ir.Func.atoms instrs;
        Bitset.inter_into ~into:tf.gen ctx.Checkctx.present;
        tf)
  in
  Dataflow.solve f ~top:ctx.Checkctx.present
    ~direction:(if ant then Dataflow.Backward else Dataflow.Forward)
    ~boundary:(Bitset.create n) ~transfer

(* Forward availability: AVIN/AVOUT per block. *)
let availability ctx = solve ctx ~ant:false

(* Backward anticipatability. The solver's [in_]/[out] are named by
   *program* position: [result.in_.(b)] is the value at block entry
   (ANTIN), [result.out.(b)] at block exit (ANTOUT). *)
let anticipatability ctx = solve ctx ~ant:true
