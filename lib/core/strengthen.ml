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
module Intern = Nascent_checks.Intern
open Ir.Types

let run (ctx : Checkctx.t) (n : Checkctx.counts) : unit =
  let uni = Checkctx.universe ctx in
  let pool = Universe.pool uni in
  let ant = Analyses.anticipatability ctx in
  let f = ctx.Checkctx.func in
  let reach = Ir.Func.reachable f in
  (* after check [j] executes, its family-weaker checks are
     anticipatable here: present ones only, as in the analysis *)
  let gen cur j =
    Bitset.union_into ~into:cur (Universe.ant_gen uni j);
    Bitset.inter_into ~into:cur ctx.Checkctx.present
  in
  Ir.Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then begin
        (* Backward in-block scan: [cur] is the anticipatable set just
           before the instruction under consideration. *)
        let cur = Bitset.copy ant.Nascent_analysis.Dataflow.out.(b.bid) in
        let strengthened_instr (i : instr) : instr =
          match i with
          | Check m ->
              let j = Intern.id pool m.chk in
              gen cur j;
              (* Strongest anticipatable check of the same family at
                 this point. *)
              let best = ref j in
              Bitset.iter
                (fun j' ->
                  if
                    Intern.family pool j' = Intern.family pool j
                    && Check.constant (Intern.check pool j')
                       < Check.constant (Intern.check pool !best)
                  then best := j')
                cur;
              if !best <> j then begin
                (* The replacement performs a stronger check, whose
                   family-weaker checks become anticipatable for
                   instructions earlier in the block. *)
                gen cur !best;
                n.strengthened <- n.strengthened + 1;
                Check { m with chk = Intern.check pool !best }
              end
              else i
          | _ ->
              List.iter
                (fun k -> Bitset.diff_into ~into:cur (Universe.killed_by_key uni k))
                (Ir.Atoms.killed_by f.Ir.Func.atoms i);
              i
        in
        (* rev_map evaluates front-to-back, so feeding it the reversed
           list visits instructions backward (as the analysis needs) and
           returns them in the original order. *)
        b.instrs <- List.rev_map strengthened_instr (List.rev b.instrs)
      end)
    f
