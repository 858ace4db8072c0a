(* Bit-vector data-flow problems over the fixpoint engine.

   Both check analyses are *must* problems (intersection confluence)
   whose per-block transfer is kill-then-gen, so a problem is per-block
   GEN/KILL sets, a direction, and a boundary value, solved to the
   maximal fixed point from an optimistic top value.

   The engine ({!Nascent_ir.Fixpoint.iterate}) owns the sweep order,
   the stale blocks, the fuel tick per visit and the boundary blocks
   (including a backward problem's no-exit regions); this module keeps
   the sets and updates them in place, so a solve allocates its
   result's in/out sets and nothing per visit. Unreachable blocks, and
   sources not yet visited, hold the optimistic top value, which is
   what "unreachable" reads as in an intersection; clients only consult
   reachable blocks. *)

module Bitset = Nascent_support.Bitset
module Guard = Nascent_support.Guard
module Func = Nascent_ir.Func
module Fixpoint = Nascent_ir.Fixpoint

type direction = Fixpoint.direction = Forward | Backward

type block_transfer = { gen : Bitset.t; kill : Bitset.t }

type result = { in_ : Bitset.t array; out : Bitset.t array }

(* [solve f ~top ~direction ~boundary ~transfer] where [top] is the
   value every block starts from, [boundary] the value at the entry
   (forward) or at every exit block (backward), and [transfer.(b)] the
   GEN/KILL of block [b]. *)
let solve (f : Func.t) ~(top : Bitset.t) ~direction ~(boundary : Bitset.t)
    ~(transfer : block_transfer array) : result =
  let n = Func.num_blocks f in
  let mk_top () = Array.init n (fun _ -> Bitset.copy top) in
  let in_ = mk_top () and out = mk_top () in
  (* [conf] is where a block's sources meet, [res] its transferred
     value, which its dependents read *)
  let conf, res = match direction with Forward -> (in_, out) | Backward -> (out, in_) in
  let tmp = Bitset.create (Bitset.universe top) in
  let visit ~sweep:_ b sources =
    (match sources with
    | [] -> Bitset.assign ~into:conf.(b) boundary
    | _ ->
        Bitset.fill tmp;
        List.iter (fun s -> Bitset.inter_into ~into:tmp res.(s)) sources;
        Bitset.assign ~into:conf.(b) tmp);
    Bitset.assign ~into:tmp res.(b);
    Bitset.assign ~into:res.(b) conf.(b);
    Bitset.diff_into ~into:res.(b) transfer.(b).kill;
    Bitset.union_into ~into:res.(b) transfer.(b).gen;
    not (Bitset.equal tmp res.(b))
  in
  (* Convergence bound: a must-problem over an n-block CFG strictly
     shrinks some set on every productive sweep, so 8n + 64 sweeps is
     far past any real fixpoint — hitting it means the transfer
     functions are non-monotone (corrupted IR or a solver bug). The
     explicit bound makes the solver total even with no ambient watchdog
     installed. *)
  let cap = (8 * n) + 64 in
  if not (Fixpoint.iterate ~cap f direction visit) then
    raise
      (Guard.Fuel_exhausted
         (Printf.sprintf "dataflow solve in %s: no fixpoint after %d sweeps" f.Func.fname
            cap));
  { in_; out }
