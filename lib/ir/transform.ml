(* Whole-IR copying and check stripping.

   The experiment harness optimizes the same naive-checked program
   under many configurations; each run works on its own copy. Block ids
   are preserved, so loop metadata and atom tables can be shared. *)

module Vec = Nascent_support.Vec
open Types

(* The blocks and loop metadata of [f], fresh (both hold mutable
   fields) but sharing every instruction list and terminator. *)
let copy_shape (f : Func.t) : Func.t =
  let blocks = Vec.create ~dummy:Func.dummy_block in
  Vec.iter
    (fun (b : block) -> ignore (Vec.push blocks { bid = b.bid; instrs = b.instrs; term = b.term }))
    f.Func.blocks;
  let loops =
    List.map
      (function
        | Ldo d -> Ldo { d with d_basic = d.d_basic } (* fresh record: d_basic is mutable *)
        | Lwhile w -> Lwhile w)
      f.Func.loops
  in
  (* vars/arrays are immutable values: shared. So is the CFG view: the
     copied blocks carry the same terminators, which keeps it valid for
     the copy. *)
  { f with Func.blocks; loops }

let copy_func (f : Func.t) : Func.t =
  { (copy_shape f) with Func.atoms = Atoms.clone f.Func.atoms }

(* A rollback snapshot shares the atom table: {!restore_func} never
   rewinds it, so a private clone would only be garbage. *)
let snapshot_func = copy_shape

(* Roll a function back to a [copy_func] snapshot, in place: the
   [Func.t] record (and the block records the snapshot shares ids
   with) keep their physical identity, so contexts holding the
   function stay valid. Blocks a failed pass appended beyond the
   snapshot are dropped; blocks the snapshot knows are restored
   field-by-field. The atom table is NOT rewound: it is append-only
   and interning is keyed by content, so entries a rolled-back pass
   interned are merely unused. *)
let restore_func ~(from_ : Func.t) (f : Func.t) : unit =
  let n = Vec.length from_.Func.blocks in
  if Vec.length f.Func.blocks > n then Vec.truncate f.Func.blocks n;
  Vec.iteri
    (fun i (s : block) ->
      if i < Vec.length f.Func.blocks then begin
        let b = Vec.get f.Func.blocks i in
        b.instrs <- s.instrs;
        b.term <- s.term
      end
      else ignore (Vec.push f.Func.blocks { bid = s.bid; instrs = s.instrs; term = s.term }))
    from_.Func.blocks;
  f.Func.params <- from_.Func.params;
  f.Func.vars <- from_.Func.vars;
  f.Func.arrays <- from_.Func.arrays;
  f.Func.entry <- from_.Func.entry;
  f.Func.loops <-
    List.map
      (function Ldo d -> Ldo { d with d_basic = d.d_basic } | Lwhile w -> Lwhile w)
      from_.Func.loops;
  f.Func.next_vid <- from_.Func.next_vid;
  (* the restored terminators are the snapshot's, so its view fits *)
  f.Func.view <- from_.Func.view

let copy_program (p : Program.t) : Program.t =
  let q = Program.create ~main:p.Program.main in
  Program.iter_funcs (fun f -> Program.add q (copy_func f)) p;
  q

(* Remove every check-related instruction: the "without range checking"
   baseline of Table 1. *)
let strip_checks_func (f : Func.t) =
  Func.iter_blocks
    (fun b ->
      b.instrs <-
        List.filter
          (fun i -> match i with Check _ | Cond_check _ | Trap _ -> false | _ -> true)
          b.instrs)
    f

let strip_checks (p : Program.t) : Program.t =
  let q = copy_program p in
  Program.iter_funcs strip_checks_func q;
  q
