(* The IR invariant verifier (Nascent_ir.Verify).

   Acceptance: the verifier, wired between optimizer passes via
   [Config.verify], accepts every (benchmark x scheme x check kind x
   implication mode) optimized output — a rejection rolls the pass
   back and records an incident, so a clean sweep is zero incidents
   across the whole matrix.
   Rejection: seeded corruption of each invariant class (broken CFG,
   malformed check, stale loop metadata, unsafe insertion) must be
   reported. *)

open Util
module Ir = Nascent_ir
module Verify = Ir.Verify
module Core = Nascent_core
module Config = Core.Config
module Universe = Nascent_checks.Universe
module Check = Nascent_checks.Check
module Linexpr = Nascent_checks.Linexpr
module Atom = Nascent_checks.Atom
module B = Nascent_benchmarks.Suite
open Ir.Types

let impls =
  [ Universe.All_implications; Universe.Cross_family_only; Universe.No_implications ]

let kinds = [ Config.PRX; Config.INX ]

(* --- acceptance -------------------------------------------------------- *)

(* The full matrix: every scheme, check kind and implication mode on
   every benchmark, inter-pass verification on. Also checks the final
   output structurally, so the last pass cannot hide anything. *)
let test_matrix_accepted () =
  List.iter
    (fun (b : B.benchmark) ->
      let ir = ir_of_source b.B.source in
      List.iter
        (fun scheme ->
          List.iter
            (fun kind ->
              List.iter
                (fun impl ->
                  let config = Config.make ~scheme ~kind ~impl ~verify:true () in
                  let opt, stats = Core.Optimizer.optimize ~config ir in
                  (* a verifier rejection no longer raises: it rolls
                     the pass back and records an incident, so a clean
                     sweep now means ZERO incidents *)
                  (match stats.Core.Optimizer.incidents with
                  | [] -> ()
                  | is ->
                      Alcotest.failf "%s under %a: %d pass(es) rolled back: %a"
                        b.B.name Config.pp config (List.length is)
                        (Fmt.list Core.Optimizer.pp_incident)
                        is);
                  match Verify.program opt with
                  | [] -> ()
                  | vs ->
                      Alcotest.failf "%s under %a: %a" b.B.name Config.pp config
                        (Fmt.list Verify.pp_violation) vs)
                impls)
            kinds)
        Config.extended_schemes)
    B.all

(* Lowered IR of every benchmark is well-formed before any pass runs. *)
let test_lowered_accepted () =
  List.iter
    (fun (b : B.benchmark) ->
      match Verify.program (ir_of_source b.B.source) with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s lowered: %a" b.B.name (Fmt.list Verify.pp_violation) vs)
    B.all

(* --- rejection: seeded corruption -------------------------------------- *)

let loop_src =
  "program l\ninteger a(1:10), i, s\ns = 0\ndo i = 1, 10\ns = s + a(i)\nenddo\nprint s\nend"

let straight_src = "program s\ninteger a(1:10), k\nk = 3\na(k) = 1\nend"

let has_rule rule vs = List.exists (fun v -> v.Verify.rule = rule) vs

(* [expect] pins every reported violation as the user sees it: the
   verifier builds locations lazily, and the text must not change. *)
let check_rejected name rule ~expect vs =
  Alcotest.(check bool)
    (Fmt.str "%s reports a %s violation" name (Verify.rule_name rule))
    true (has_rule rule vs);
  Alcotest.(check (list string))
    (name ^ ": violation text")
    expect
    (List.map (Fmt.str "%a" Verify.pp_violation) vs)

let check_clean name vs =
  match vs with
  | [] -> ()
  | vs -> Alcotest.failf "%s: %a" name (Fmt.list Verify.pp_violation) vs

(* class 1: CFG corruption — terminator target out of range *)
let test_rejects_bad_terminator () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  check_clean "initially clean" (Verify.func f);
  (Ir.Func.block f f.Ir.Func.entry).term <- Goto 9999;
  check_rejected "dangling goto" Verify.Cfg
    ~expect:[ "[cfg] block 0: terminator target 9999 out of range [0,6)" ]
    (Verify.func f)

(* class 2: check corruption — an atom the function never interned *)
let test_rejects_ghost_atom () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let ghost = Atom.make ~key:99999 ~name:"ghost" in
  let m =
    {
      chk = Check.make (Linexpr.of_atom ghost) 5;
      src_array = "a";
      src_dim = 0;
      kind = Upper;
    }
  in
  let b = Ir.Func.block f f.Ir.Func.entry in
  b.instrs <- Check m :: b.instrs;
  check_rejected "ghost atom" Verify.Check_form
    ~expect:
      [
        "[check-form] block 0: Check (ghost <= 5)  ! a dim 0 upper: atom ghost#99999 \
         not in the function's atom table";
      ]
    (Verify.func f);
  match Verify.func_exn f with
  | () -> Alcotest.fail "func_exn accepted a ghost atom"
  | exception Verify.Invalid_ir msg ->
      Alcotest.(check string) "func_exn message"
        "IR verification failed: l after lowered (1 violation)\n\
         [check-form] block 0: Check (ghost <= 5)  ! a dim 0 upper: atom ghost#99999 \
         not in the function's atom table"
        msg

(* class 2b: check corruption — dimension beyond the declared rank *)
let test_rejects_bad_dimension () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let corrupted = ref false in
  Ir.Func.iter_blocks
    (fun b ->
      b.instrs <-
        List.map
          (fun i ->
            match i with
            | Check m when not !corrupted ->
                corrupted := true;
                Check { m with src_dim = 7 }
            | i -> i)
          b.instrs)
    f;
  Alcotest.(check bool) "found a check to corrupt" true !corrupted;
  check_rejected "rank overflow" Verify.Check_form
    ~expect:
      [
        "[check-form] block 3: Check (-i <= -1)  ! a dim 7 lower: dimension 7 out of \
         range for a (rank 1)";
      ]
    (Verify.func f)

(* class 3: loop corruption — preheader metadata pointing elsewhere *)
let test_rejects_stale_preheader () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let saw_do = ref false in
  f.Ir.Func.loops <-
    List.map
      (function
        | Ldo d ->
            saw_do := true;
            Ldo { d with d_preheader = d.d_exit }
        | m -> m)
      f.Ir.Func.loops;
  Alcotest.(check bool) "program has a do loop" true !saw_do;
  check_rejected "stale preheader" Verify.Loop_structure
    ~expect:
      [
        "[loop-structure] do-loop@2: preheader must enter the header: no edge 5 -> 2";
        "[loop-structure] do-loop@2: preheader 5 does not dominate header 2";
      ]
    (Verify.func f)

(* class 4: unsafe insertion — a check placed above the definition of
   its symbol (the paper's anticipatability safety rule) *)
let test_rejects_unsafe_insertion () =
  let f = Ir.Program.main_func (ir_of_source straight_src) in
  let before = Ir.Transform.copy_func f in
  let entry = Ir.Func.block f f.Ir.Func.entry in
  let meta =
    match
      List.find_opt (function Check _ -> true | _ -> false) entry.instrs
    with
    | Some (Check m) -> m
    | _ -> Alcotest.fail "expected a check in the entry block"
  in
  (* a physically fresh copy of an existing check, hoisted above the
     definition of k it guards *)
  entry.instrs <- Check meta :: entry.instrs;
  check_rejected "check above def" Verify.Insertion
    ~expect:
      [
        "[insertion] block 0: inserted Check (-k <= -1)  ! a dim 0 lower: check is not \
         anticipatable at its insertion point (may sit above a definition of one of \
         its symbols, or trap on a path that did not)";
      ]
    (Verify.func ~pass:Verify.Code_motion ~before f)

(* positive control for class 4: inserting the same check below the
   definition — where the original makes it anticipatable — is fine *)
let test_accepts_safe_insertion () =
  let f = Ir.Program.main_func (ir_of_source straight_src) in
  let before = Ir.Transform.copy_func f in
  let entry = Ir.Func.block f f.Ir.Func.entry in
  (* keep the original cell ([orig]) physically identical so the diff
     sees exactly one insertion *)
  let rec insert_before_check = function
    | (Check m as orig) :: rest -> Check m :: orig :: rest
    | i :: rest -> i :: insert_before_check rest
    | [] -> Alcotest.fail "expected a check in the entry block"
  in
  entry.instrs <- insert_before_check entry.instrs;
  check_clean "safe duplicate accepted"
    (Verify.func ~pass:Verify.Code_motion ~before f)

(* a strengthening that *weakens* (larger constant) must be rejected *)
let test_rejects_weakening () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let before = Ir.Transform.copy_func f in
  let weakened = ref false in
  Ir.Func.iter_blocks
    (fun b ->
      b.instrs <-
        List.map
          (fun i ->
            match i with
            | Check m when (not !weakened) && Check.constant m.chk < 1000 ->
                weakened := true;
                Check
                  {
                    m with
                    chk =
                      Check.make (Check.lhs m.chk) (Check.constant m.chk + 1);
                  }
            | i -> i)
          b.instrs)
    f;
  Alcotest.(check bool) "found a check to weaken" true !weakened;
  check_rejected "weakened check" Verify.Insertion
    ~expect:
      [
        "[insertion] block 3: inserted Check (-i <= 0)  ! a dim 0 lower: strengthened \
         check has no same-family original it implies";
      ]
    (Verify.func ~pass:Verify.Strengthen ~before f)

(* hoist corruption: a loop-variant check hoisted into the preheader,
   and a "hoisted" check left in the loop body *)
let test_rejects_bad_hoist () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let before = Ir.Transform.copy_func f in
  let d =
    match f.Ir.Func.loops with
    | Ldo d :: _ -> d
    | _ -> Alcotest.fail "expected a do loop"
  in
  let body_check = ref None in
  Ir.Func.iter_blocks
    (fun b ->
      List.iter
        (function Check m when !body_check = None -> body_check := Some (b, m) | _ -> ())
        b.instrs)
    f;
  let body, m =
    match !body_check with Some c -> c | None -> Alcotest.fail "expected a check"
  in
  let pre = Ir.Func.block f d.d_preheader in
  pre.instrs <- pre.instrs @ [ Check m ];
  body.instrs <- Check m :: body.instrs;
  check_rejected "bad hoist" Verify.Insertion
    ~expect:
      [
        "[insertion] block 1: inserted Check (-i <= -1)  ! a dim 0 lower: mentions i#0, \
         defined inside the loop it was hoisted out of";
        "[insertion] block 3: inserted Check (-i <= -1)  ! a dim 0 lower: hoisting pass \
         inserted outside a loop preheader";
      ]
    (Verify.func ~pass:Verify.Hoist ~before f)

(* --- qcheck: corruption never slips through ---------------------------- *)

(* For a random benchmark and corruption class, the verifier reports at
   least one violation. *)
let prop_corruption_rejected =
  QCheck.Test.make ~name:"verifier rejects seeded corruption" ~count:40
    (QCheck.make QCheck.Gen.(pair (int_bound (List.length B.all - 1)) (int_bound 2)))
    (fun (bi, ci) ->
      let b = List.nth B.all bi in
      let f = Ir.Program.main_func (ir_of_source b.B.source) in
      let applied =
        match ci with
        | 0 ->
            (Ir.Func.block f f.Ir.Func.entry).term <- Goto 9999;
            true
        | 1 ->
            let ghost = Atom.make ~key:99999 ~name:"ghost" in
            let m =
              {
                chk = Check.make (Linexpr.of_atom ghost) 1;
                src_array = "<corrupt>";
                src_dim = 0;
                kind = Lower;
              }
            in
            let blk = Ir.Func.block f f.Ir.Func.entry in
            blk.instrs <- Check m :: blk.instrs;
            true
        | _ -> (
            match f.Ir.Func.loops with
            | [] -> false (* nothing to corrupt; vacuously fine *)
            | metas ->
                f.Ir.Func.loops <-
                  List.mapi
                    (fun i meta ->
                      if i > 0 then meta
                      else
                        match meta with
                        | Ldo d -> Ldo { d with d_preheader = d.d_header }
                        | Lwhile w -> Lwhile { w with w_preheader = w.w_header })
                    metas;
                true)
      in
      (not applied) || Verify.func f <> [])

let suite =
  [
    tc "matrix: every config accepted" test_matrix_accepted;
    tc "lowered benchmarks accepted" test_lowered_accepted;
    tc "rejects dangling terminator" test_rejects_bad_terminator;
    tc "rejects ghost-atom check" test_rejects_ghost_atom;
    tc "rejects out-of-rank dimension" test_rejects_bad_dimension;
    tc "rejects stale loop preheader" test_rejects_stale_preheader;
    tc "rejects check above its def" test_rejects_unsafe_insertion;
    tc "accepts safe duplicate insertion" test_accepts_safe_insertion;
    tc "rejects weakening strengthen" test_rejects_weakening;
    tc "rejects loop-variant and misplaced hoists" test_rejects_bad_hoist;
    QCheck_alcotest.to_alcotest prop_corruption_rejected;
  ]
