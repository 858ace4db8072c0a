(* Generic iterative bit-vector data-flow solver.

   Both check analyses are *must* problems (intersection confluence)
   whose per-block transfer is kill-then-gen, so the solver takes
   per-block GEN/KILL sets, a direction, and boundary values, and
   iterates to the maximal fixed point starting from the optimistic
   full set.

   Unreachable blocks keep the optimistic value; clients only consult
   reachable blocks.

   The CFG facts a sweep needs (predecessor and successor lists, the
   reverse postorder, the blocks that reach an exit) are read from the
   function's cached view ({!Nascent_ir.Func.cfg}), not re-derived per
   solve or per sweep: every solve of a pass sees the same view until a
   pass adds a block or changes a terminator. A solve allocates its
   result's in/out sets and little else. *)

module Bitset = Nascent_support.Bitset
module Guard = Nascent_support.Guard
module Func = Nascent_ir.Func

type direction = Forward | Backward

type block_transfer = { gen : Bitset.t; kill : Bitset.t }

type result = { in_ : Bitset.t array; out : Bitset.t array }

let apply_transfer tf ~input ~output =
  Bitset.assign ~into:output input;
  Bitset.diff_into ~into:output tf.kill;
  Bitset.union_into ~into:output tf.gen

(* [solve f ~universe ~direction ~boundary ~transfer] where
   [boundary] is the value at the entry (forward) or at every exit
   block (backward), and [transfer.(b)] the GEN/KILL of block [b]. *)
let solve (f : Func.t) ~universe ~direction ~(boundary : Bitset.t)
    ~(transfer : block_transfer array) : result =
  let n = Func.num_blocks f in
  let mk_full () = Array.init n (fun _ -> Bitset.full universe) in
  let in_ = mk_full () and out = mk_full () in
  (* Predecessors, successors, the sweep order and the no-exit blocks
     all come from the function's CFG view, shared with every other
     analysis of the same CFG shape. *)
  let c = Func.cfg f in
  let preds = c.Func.pred and succs = c.Func.succ in
  (* Backward boundary: a block in a no-exit region (an SCC with no
     path to any successor-less block — an infinite loop built directly
     in the IR) has no terminating path, so the maximal fixed point
     would keep the optimistic full set there and anticipatability
     would claim checks that no execution realizes. Such blocks are
     boundary blocks too: no path to an exit means nothing is
     anticipated along one. *)
  let reaches_exit =
    match direction with Forward -> [||] | Backward -> Func.reaches_exit f
  in
  let order = match direction with Forward -> c.Func.order | Backward -> List.rev c.Func.order in
  let entry = f.Func.entry in
  let tmp = Bitset.create universe in
  (* Convergence bound: a must-problem over an n-block CFG strictly
     shrinks some set on every productive sweep, so 8n + 64 sweeps is
     far past any real fixpoint — hitting it means the transfer
     functions are non-monotone (corrupted IR or a solver bug). The
     explicit bound makes the solver total even with no ambient watchdog
     installed; the per-sweep [Guard.tick_ambient] additionally charges
     any enclosing pass or pool-task fuel budget. *)
  let max_sweeps = (8 * n) + 64 in
  let sweeps = ref 0 in
  let changed = ref true in
  while !changed do
    Guard.tick_ambient ();
    incr sweeps;
    if !sweeps > max_sweeps then
      raise
        (Guard.Fuel_exhausted
           (Printf.sprintf "dataflow solve in %s: no fixpoint after %d sweeps"
              f.Func.fname max_sweeps));
    changed := false;
    List.iter
      (fun b ->
        (* confluence *)
        let conf_sources =
          match direction with Forward -> preds.(b) | Backward -> succs.(b)
        in
        let conf_target = match direction with Forward -> in_.(b) | Backward -> out.(b) in
        let is_boundary =
          match direction with
          | Forward -> b = entry
          | Backward ->
              (* exit blocks, plus blocks that cannot reach one *)
              conf_sources = [] || not reaches_exit.(b)
        in
        if is_boundary then Bitset.assign ~into:conf_target boundary
        else begin
          Bitset.fill tmp;
          List.iter
            (fun s ->
              let sv = match direction with Forward -> out.(s) | Backward -> in_.(s) in
              Bitset.inter_into ~into:tmp sv)
            conf_sources;
          Bitset.assign ~into:conf_target tmp
        end;
        (* transfer *)
        let input, output =
          match direction with Forward -> (in_.(b), out.(b)) | Backward -> (out.(b), in_.(b))
        in
        Bitset.assign ~into:tmp output;
        apply_transfer transfer.(b) ~input ~output;
        if not (Bitset.equal tmp output) then changed := true)
      order
  done;
  { in_; out }
