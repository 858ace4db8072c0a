(* Lowering and IR structure: canonical check emission, loop shapes,
   bound-temp sharing, copying, printing. *)

open Util
module Ir = Nascent_ir
module Check = Nascent_checks.Check
module Linexpr = Nascent_checks.Linexpr
open Ir.Types

let main_of src = Ir.Program.main_func (ir_of_source src)

let checks_of f = List.map (fun (m : check_meta) -> m.chk) (Ir.Func.all_check_metas f)

let test_store_emits_two_checks_per_dim () =
  let f = main_of "program t\ninteger a(1:10), n\nn = 1\na(n) = 0\nend" in
  Alcotest.(check int) "two checks" 2 (List.length (checks_of f));
  let f2 = main_of "program t\ninteger b(1:4, 0:5), n\nn = 1\nb(n, n) = 0\nend" in
  Alcotest.(check int) "four checks" 4 (List.length (checks_of f2))

let test_checks_precede_access () =
  let f = main_of "program t\ninteger a(1:10), n\nn = 1\na(n) = 0\nend" in
  (* within the entry block, both checks must appear before the store *)
  let b = Ir.Func.block f f.Ir.Func.entry in
  let rec scan seen_checks = function
    | [] -> Alcotest.fail "no store found"
    | Check _ :: rest -> scan (seen_checks + 1) rest
    | Store _ :: _ -> Alcotest.(check int) "checks before store" 2 seen_checks
    | _ :: rest -> scan seen_checks rest
  in
  scan 0 b.instrs

let test_canonical_forms_of_lowered_checks () =
  (* a(2*n - 1) on a(5:10): lower -2n <= -6, upper 2n <= 11 *)
  let f = main_of "program t\ninteger a(5:10), n\nn = 3\na(2*n - 1) = 0\nend" in
  let consts = List.sort compare (List.map Check.constant (checks_of f)) in
  Alcotest.(check (list int)) "constants" [ -6; 11 ] consts

let test_constant_subscript_checks_are_constant () =
  let f = main_of "program t\ninteger a(1:10)\na(5) = 0\nend" in
  List.iter
    (fun c ->
      match Check.compile_time_value c with
      | Some true -> ()
      | _ -> Alcotest.failf "expected compile-time true: %a" Check.pp c)
    (checks_of f)

let test_bound_temp_sharing () =
  (* two arrays with the same symbolic extent share one bound temp, so
     their upper checks are in one family *)
  let prog =
    ir_of_source
      "program t\n\
       integer n\n\
       n = 5\n\
       call s(n)\n\
       end\n\
       subroutine s(n)\n\
       integer n, i\n\
       real x(1:n), y(1:n)\n\
       do i = 1, n\n\
       x(i) = 1.0\n\
       y(i) = 2.0\n\
       enddo\n\
       end"
  in
  let f = Ir.Program.find_exn prog "s" in
  let uppers =
    List.filter_map
      (fun (m : check_meta) -> if m.kind = Upper then Some (Check.lhs m.chk) else None)
      (Ir.Func.all_check_metas f)
  in
  match uppers with
  | [ a; b ] -> Alcotest.(check bool) "same family" true (Linexpr.equal a b)
  | l -> Alcotest.failf "expected 2 upper checks, got %d" (List.length l)

let test_do_loop_shape () =
  let f = main_of "program t\ninteger i, s\ns = 0\ndo i = 1, 5\ns = s + 1\nenddo\nend" in
  match f.Ir.Func.loops with
  | [ Ldo d ] ->
      (* preheader ends in a goto to the header; header branches *)
      let pre = Ir.Func.block f d.d_preheader in
      (match pre.term with
      | Goto h -> Alcotest.(check int) "pre -> header" d.d_header h
      | _ -> Alcotest.fail "preheader must end in goto");
      let hd = Ir.Func.block f d.d_header in
      (match hd.term with
      | Branch (_, b, e) ->
          Alcotest.(check int) "then = body" d.d_body_entry b;
          Alcotest.(check int) "else = exit" d.d_exit e
      | _ -> Alcotest.fail "header must branch");
      let latch = Ir.Func.block f d.d_latch in
      (match latch.term with
      | Goto h -> Alcotest.(check int) "latch -> header" d.d_header h
      | _ -> Alcotest.fail "latch must loop");
      Alcotest.(check int) "step" 1 d.d_step
  | _ -> Alcotest.fail "expected one do loop"

let test_do_bounds_captured_in_temps () =
  (* symbolic bounds become entry temps; constants stay constants *)
  let f = main_of "program t\ninteger i, n\nn = 7\ndo i = 2, n\nenddo\nend" in
  match f.Ir.Func.loops with
  | [ Ldo d ] -> (
      (match d.d_lo with
      | Cint 2 -> ()
      | e -> Alcotest.failf "lo should be constant, got %a" Ir.Expr.pp e);
      match d.d_hi with
      | Evar v -> Alcotest.(check bool) "temp name" true (String.length v.vname > 1)
      | e -> Alcotest.failf "hi should be a temp, got %a" Ir.Expr.pp e)
  | _ -> Alcotest.fail "expected one do loop"

let test_nonliteral_step_rejected () =
  match ir_of_source "program t\ninteger i, s\ns = 2\ndo i = 1, 9, s\nenddo\nend" with
  | exception Ir.Lower.Lower_error _ -> ()
  | _ -> Alcotest.fail "expected lowering rejection of non-literal step"

let test_while_loop_shape () =
  let f = main_of "program t\ninteger n\nn = 0\nwhile n < 3 do\nn = n + 1\nendwhile\nend" in
  match f.Ir.Func.loops with
  | [ Lwhile w ] -> (
      let hd = Ir.Func.block f w.w_header in
      match hd.term with
      | Branch (_, b, e) ->
          Alcotest.(check int) "then = body" w.w_body_entry b;
          Alcotest.(check int) "else = exit" w.w_exit e
      | _ -> Alcotest.fail "header must branch")
  | _ -> Alcotest.fail "expected one while loop"

let test_copy_independent () =
  let prog = ir_of_source "program t\ninteger a(1:10), i\ndo i = 1, 10\na(i) = i\nenddo\nend" in
  let copy = Ir.Transform.copy_program prog in
  let f = Ir.Program.main_func copy in
  (* mutate the copy: drop all checks *)
  Ir.Transform.strip_checks_func f;
  let o_orig = Nascent_interp.Run.run prog in
  let o_copy = Nascent_interp.Run.run copy in
  Alcotest.(check int) "original keeps checks" 20 o_orig.checks;
  Alcotest.(check int) "copy stripped" 0 o_copy.checks

let test_opaque_subscript_atoms () =
  (* i*j is non-linear: one opaque atom, shared by both checks of the
     access and structurally hash-consed across accesses *)
  let f =
    main_of
      "program t\ninteger a(1:100), i, j, x\ni = 3\nj = 4\nx = a(i * j) + a(i * j)\nend"
  in
  let families =
    List.sort_uniq Linexpr.compare (List.map Check.lhs (checks_of f))
  in
  (* two families total: [i*j] upper and -[i*j] lower *)
  Alcotest.(check int) "two families" 2 (List.length families)

let contains ~affix s =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_printer_roundtrip_smoke () =
  let figure_src =
    "program t\ninteger a(5:10), n\nn = 3\na(2*n) = 0\na(2*n - 1) = 1\nprint n\nend"
  in
  let prog = ir_of_source figure_src in
  let s = Ir.Printer.program_to_string prog in
  Alcotest.(check bool) "mentions Check" true (contains ~affix:"Check" s);
  Alcotest.(check bool) "mentions goto" true (contains ~affix:"goto" s || contains ~affix:"return" s);
  Alcotest.(check bool) "nonempty" true (String.length s > 100)

let test_static_counts_skip_unreachable () =
  let f = main_of "program t\ninteger a(1:10)\nreturn\na(11) = 0\nend" in
  let _, checks = Ir.Func.static_counts f in
  Alcotest.(check int) "unreachable checks not counted" 0 checks

(* The one kill rule: an assignment kills its variable's atoms, a store
   the opaque atoms that read memory, and a check or a print nothing.
   The list is read when asked: linearizing [mod(21 - n, 5)] makes an
   opaque atom that mentions [n], so what [n = mod(21 - n, 5)] kills
   grows with it, and a transfer over the assignment must linearize
   before it reads the list. *)
let test_killed_by () =
  let f =
    main_of "program t\ninteger a(1:5), n\nn = 4\nn = mod(21 - n, 5)\na(a(n)) = 1\nprint n\nend"
  in
  let atoms = f.Ir.Func.atoms in
  let instrs = List.concat_map (fun b -> (Ir.Func.block f b).instrs) (Ir.Func.rpo f) in
  let opaque key =
    match Ir.Atoms.payload atoms key with Some (Ir.Atoms.Aopaque e) -> Some e | _ -> None
  in
  let seen = ref [] in
  List.iter
    (fun i ->
      match i with
      | Assign (v, (Ebin _ as e)) when v.vname = "n" ->
          seen := "assign" :: !seen;
          let before = Ir.Atoms.killed_by atoms i in
          ignore (Ir.Canon.linearize atoms e);
          let after = Ir.Atoms.killed_by atoms i in
          Alcotest.(check int) "the linearized atom joins the kills" (List.length before + 1)
            (List.length after);
          Alcotest.(check bool) "it is opaque" true
            (List.exists (fun k -> (not (List.mem k before)) && opaque k <> None) after)
      | Store _ ->
          seen := "store" :: !seen;
          let keys = Ir.Atoms.killed_by atoms i in
          let load k = match opaque k with Some e -> Ir.Expr.has_load e | None -> false in
          Alcotest.(check bool) "a store kills the loads" true
            (keys <> [] && List.for_all load keys)
      | Check _ | Print _ ->
          seen := "other" :: !seen;
          Alcotest.(check (list int)) "kills nothing" [] (Ir.Atoms.killed_by atoms i)
      | _ -> ())
    instrs;
  Alcotest.(check (list string)) "every kind seen" [ "assign"; "other"; "store" ]
    (List.sort_uniq String.compare !seen)

let suite =
  [
    tc "store emits two checks per dim" test_store_emits_two_checks_per_dim;
    tc "checks precede access" test_checks_precede_access;
    tc "canonical forms of lowered checks" test_canonical_forms_of_lowered_checks;
    tc "constant subscript checks are constant" test_constant_subscript_checks_are_constant;
    tc "bound temp sharing" test_bound_temp_sharing;
    tc "do loop shape" test_do_loop_shape;
    tc "do bounds captured in temps" test_do_bounds_captured_in_temps;
    tc "non-literal step rejected" test_nonliteral_step_rejected;
    tc "while loop shape" test_while_loop_shape;
    tc "copy independent" test_copy_independent;
    tc "opaque subscript atoms" test_opaque_subscript_atoms;
    tc "printer smoke" test_printer_roundtrip_smoke;
    tc "static counts skip unreachable" test_static_counts_skip_unreachable;
    tc "atoms: one kill rule, read when asked" test_killed_by;
  ]
