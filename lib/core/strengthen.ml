(* Check strengthening (Gupta; paper section 3.3).

   For each check C, compute the strongest anticipatable check C' of
   C's family at C's program point and replace C by C'. C' is
   guaranteed to be performed later anyway (anticipatable), so doing it
   here is safe, and it makes the later weaker checks redundant — the
   elimination pass then deletes them. This realizes the paper's
   Figure 1(b) -> 1(c) transformation. *)

module Ir = Nascent_ir
module Bitset = Nascent_support.Bitset
module Check = Nascent_checks.Check
module Universe = Nascent_checks.Universe
open Ir.Types

type stats = { mutable strengthened : int }

let run (ctx : Checkctx.t) : stats =
  let st = { strengthened = 0 } in
  let env = Analyses.make_env ctx in
  let uni = env.Analyses.uni in
  let ant = Analyses.anticipatability env in
  let f = ctx.Checkctx.func in
  let reach = Ir.Func.reachable f in
  Ir.Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then begin
        (* Backward in-block scan: [cur] is the anticipatable set just
           before the instruction under consideration. *)
        let cur = Bitset.copy ant.Nascent_analysis.Dataflow.out.(b.bid) in
        let strengthened_instr (i : instr) : instr =
          match i with
          | Check m -> (
              match Universe.index_of uni m.chk with
              | None -> i
              | Some j ->
                  (* After this check executes, its family-weaker checks
                     are anticipatable here. *)
                  Bitset.union_into ~into:cur (Universe.ant_gen uni j);
                  (* Strongest anticipatable check of the same family at
                     this point. *)
                  let best = ref j in
                  Bitset.iter
                    (fun j' ->
                      if
                        Universe.family uni j' = Universe.family uni j
                        && Check.constant (Universe.check uni j')
                           < Check.constant (Universe.check uni !best)
                      then best := j')
                    cur;
                  if !best <> j then begin
                    (* The replacement performs a stronger check, whose
                       family-weaker checks become anticipatable for
                       instructions earlier in the block. *)
                    Bitset.union_into ~into:cur (Universe.ant_gen uni !best);
                    st.strengthened <- st.strengthened + 1;
                    Check { m with chk = Universe.check uni !best }
                  end
                  else i)
          | _ ->
              List.iter
                (fun k -> Bitset.diff_into ~into:cur (Universe.killed_by_key uni k))
                (Checkctx.kill_keys ctx i);
              i
        in
        (* rev_map evaluates front-to-back, so feeding it the reversed
           list visits instructions backward (as the analysis needs) and
           returns them in the original order. *)
        b.instrs <- List.rev_map strengthened_instr (List.rev b.instrs)
      end)
    f;
  st
