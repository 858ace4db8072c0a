(* Lexer, parser and semantic-analysis tests. *)

open Util
module Token = Nascent_frontend.Token
module Lexer = Nascent_frontend.Lexer
module Sema = Nascent_frontend.Sema

let toks src = List.map fst (Lexer.tokenize src)

let token = Alcotest.testable (Fmt.of_to_string Token.to_string) ( = )

let test_lex_simple () =
  Alcotest.(check (list token))
    "tokens"
    [ Token.IDENT "x"; Token.EQ; Token.INT 1; Token.PLUS; Token.INT 2; Token.EOF ]
    (toks "x = 1 + 2")

let test_lex_operators () =
  Alcotest.(check (list token))
    "tokens"
    [ Token.LE; Token.GE; Token.LT; Token.GT; Token.NE; Token.EQ; Token.SLASH; Token.EOF ]
    (toks "<= >= < > /= = /")

let test_lex_keywords_case_insensitive () =
  Alcotest.(check (list token))
    "tokens"
    [ Token.KW_DO; Token.KW_ENDDO; Token.KW_PROGRAM; Token.EOF ]
    (toks "DO EndDo PROGRAM")

let test_lex_comments () =
  Alcotest.(check (list token))
    "tokens"
    [ Token.INT 1; Token.INT 2; Token.EOF ]
    (toks "1 ! comment to eol\n2 # another")

let test_lex_reals () =
  match toks "1.5 2.0e3 7" with
  | [ Token.REAL a; Token.REAL b; Token.INT 7; Token.EOF ] ->
      Alcotest.(check (float 1e-9)) "a" 1.5 a;
      Alcotest.(check (float 1e-9)) "b" 2000.0 b
  | ts -> Alcotest.failf "unexpected tokens: %d" (List.length ts)

let test_lex_error () =
  match Lexer.tokenize "x = @" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected lex error"

let test_lex_positions () =
  let p1, p2 =
    match Lexer.tokenize "ab\n  cd" with
    | (_, p1) :: (_, p2) :: _ -> (p1, p2)
    | _ -> Alcotest.fail "expected two tokens"
  in
  Alcotest.(check int) "line1" 1 p1.Nascent_frontend.Srcloc.line;
  Alcotest.(check int) "line2" 2 p2.Nascent_frontend.Srcloc.line;
  Alcotest.(check int) "col2" 3 p2.Nascent_frontend.Srcloc.col

(* --- parser --- *)

let parse_ok src =
  match Frontend.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %a" Frontend.pp_error e

let parse_err src =
  match Frontend.parse src with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ()

let test_parse_minimal () =
  let p = parse_ok "program t\nend" in
  Alcotest.(check int) "units" 1 (List.length p.Ast.units);
  let u = List.hd p.Ast.units in
  Alcotest.(check string) "name" "t" u.Ast.uname

let test_parse_decls () =
  let p = parse_ok "program t\ninteger n, a(1:10), b(5, 0:4)\nreal x\nend" in
  let u = List.hd p.Ast.units in
  Alcotest.(check int) "decls" 4 (List.length u.Ast.udecls);
  let b = List.nth u.Ast.udecls 2 in
  Alcotest.(check int) "b dims" 2 (List.length b.Ast.ddims)

let test_parse_do_loop () =
  let p = parse_ok "program t\ninteger i, a(1:10)\ndo i = 1, 10\na(i) = i\nenddo\nend" in
  let u = List.hd p.Ast.units in
  match u.Ast.ubody with
  | [ { Ast.sdesc = Ast.Do { index = "i"; step = None; body = [ _ ]; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected do structure"

let test_parse_do_step () =
  let p = parse_ok "program t\ninteger i\ndo i = 10, 1, -2\nenddo\nend" in
  let u = List.hd p.Ast.units in
  match u.Ast.ubody with
  | [ { Ast.sdesc = Ast.Do { step = Some _; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "expected a step"

let test_parse_if_else () =
  let p =
    parse_ok "program t\ninteger n\nif n > 0 then\nn = 1\nelse\nn = 2\nendif\nend"
  in
  let u = List.hd p.Ast.units in
  match u.Ast.ubody with
  | [ { Ast.sdesc = Ast.If (_, [ _ ], [ _ ]); _ } ] -> ()
  | _ -> Alcotest.fail "unexpected if structure"

let test_parse_while () =
  let p = parse_ok "program t\ninteger n\nwhile n < 10 do\nn = n + 1\nendwhile\nend" in
  let u = List.hd p.Ast.units in
  match u.Ast.ubody with
  | [ { Ast.sdesc = Ast.While (_, [ _ ]); _ } ] -> ()
  | _ -> Alcotest.fail "unexpected while structure"

let test_parse_subroutine_and_call () =
  let p =
    parse_ok
      "program t\ninteger n\ncall s(n)\nend\nsubroutine s(k)\ninteger k\nreturn\nend"
  in
  Alcotest.(check int) "units" 2 (List.length p.Ast.units)

let test_parse_precedence () =
  let p = parse_ok "program t\ninteger x\nx = 1 + 2 * 3\nend" in
  let u = List.hd p.Ast.units in
  match u.Ast.ubody with
  | [ { Ast.sdesc = Ast.Assign ("x", { Ast.desc = Ast.Binary (Ast.Add, _, rhs); _ }); _ } ]
    -> (
      match rhs.Ast.desc with
      | Ast.Binary (Ast.Mul, _, _) -> ()
      | _ -> Alcotest.fail "expected * to bind tighter than +")
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_relational_chain_rejected () =
  (* Relational operators do not associate: a < b < c is a type error at
     best, a parse error otherwise; our grammar parses (a<b) then stops,
     leaving `< c` to fail. *)
  parse_err "program t\ninteger a\nif a < 1 < 2 then\nendif\nend"

let test_parse_intrinsics () =
  let p = parse_ok "program t\ninteger x\nx = mod(7, 3) + min(1, 2) + max(1, 2) + abs(-4)\nend" in
  ignore p

let test_parse_missing_end () = parse_err "program t\ninteger n\nn = 1"

let test_parse_array_assign () =
  let p = parse_ok "program t\nreal a(1:10, 1:10)\na(1, 2) = 3.0\nend" in
  let u = List.hd p.Ast.units in
  match u.Ast.ubody with
  | [ { Ast.sdesc = Ast.Store ("a", [ _; _ ], _); _ } ] -> ()
  | _ -> Alcotest.fail "unexpected store structure"

(* --- sema --- *)

let sema_ok src = ignore (analyze_exn src)

let sema_err src =
  match Frontend.analyze src with
  | Ok _ -> Alcotest.fail "expected sema error"
  | Error (Frontend.Sema_errors _) -> ()
  | Error e -> Alcotest.failf "expected sema error, got %a" Frontend.pp_error e

let test_sema_ok_program () =
  sema_ok
    "program t\n\
     integer i, n, a(1:10)\n\
     real x(0:99)\n\
     n = 10\n\
     do i = 1, n\n\
     a(i) = i\n\
     x(i) = 1.5\n\
     enddo\n\
     end"

let test_sema_undeclared_var () = sema_err "program t\ninteger n\nn = m\nend"
let test_sema_undeclared_array () = sema_err "program t\ninteger n\nn = a(1)\nend"
let test_sema_rank_mismatch () = sema_err "program t\ninteger a(1:10)\na(1, 2) = 0\nend"

let test_sema_real_subscript () =
  sema_err "program t\nreal x\ninteger a(1:10)\na(x) = 0\nend"

let test_sema_real_to_int_assign () =
  sema_err "program t\ninteger n\nn = 1.5\nend"

let test_sema_int_to_real_ok () = sema_ok "program t\nreal x\nx = 1\nend"

let test_sema_logical_if () = sema_err "program t\ninteger n\nif n then\nendif\nend"

let test_sema_do_index_must_be_int () =
  sema_err "program t\nreal x\ndo x = 1, 10\nenddo\nend"

let test_sema_call_arity () =
  sema_err
    "program t\ninteger n\ncall s(n, n)\nend\nsubroutine s(k)\ninteger k\nend"

let test_sema_call_array_param () =
  sema_ok
    "program t\n\
     integer a(1:10)\n\
     call s(a)\n\
     end\n\
     subroutine s(b)\n\
     integer b(1:10)\n\
     b(1) = 0\n\
     end"

let test_sema_scalar_for_array_param () =
  sema_err
    "program t\ninteger n\ncall s(n)\nend\nsubroutine s(b)\ninteger b(1:10)\nend"

let test_sema_duplicate_decl () = sema_err "program t\ninteger n\nreal n\nend"

let test_sema_two_mains () = sema_err "program a\nend\nprogram b\nend"

let test_sema_no_main () = sema_err "subroutine s()\nend"

let test_sema_param_without_decl () =
  sema_err "program t\nend\nsubroutine s(k)\nend"

let test_sema_intrinsic_reserved () = sema_err "program t\ninteger mod(1:3)\nend"

let test_sema_do_index_assignment_rejected () =
  (* Fortran's rule, and the assumption behind loop-limit substitution *)
  sema_err "program t\ninteger i\ndo i = 1, 5\ni = 3\nenddo\nend"

let test_sema_nested_do_index_reuse_rejected () =
  sema_err "program t\ninteger i\ndo i = 1, 5\ndo i = 1, 3\nenddo\nenddo\nend"

let test_sema_do_index_assignment_in_if_rejected () =
  sema_err
    "program t\ninteger i, n\nn = 1\ndo i = 1, 5\nif n > 0 then\ni = 2\nendif\nenddo\nend"

let test_sema_do_index_free_after_loop () =
  (* after the loop ends the variable is assignable again *)
  sema_ok "program t\ninteger i\ndo i = 1, 5\nenddo\ni = 7\ndo i = 2, 3\nenddo\nend"

let suite =
  [
    tc "lex: simple" test_lex_simple;
    tc "lex: operators" test_lex_operators;
    tc "lex: keywords case-insensitive" test_lex_keywords_case_insensitive;
    tc "lex: comments" test_lex_comments;
    tc "lex: reals" test_lex_reals;
    tc "lex: error" test_lex_error;
    tc "lex: positions" test_lex_positions;
    tc "parse: minimal" test_parse_minimal;
    tc "parse: decls" test_parse_decls;
    tc "parse: do loop" test_parse_do_loop;
    tc "parse: do step" test_parse_do_step;
    tc "parse: if/else" test_parse_if_else;
    tc "parse: while" test_parse_while;
    tc "parse: subroutine and call" test_parse_subroutine_and_call;
    tc "parse: precedence" test_parse_precedence;
    tc "parse: relational chain rejected" test_parse_relational_chain_rejected;
    tc "parse: intrinsics" test_parse_intrinsics;
    tc "parse: missing end" test_parse_missing_end;
    tc "parse: array assign" test_parse_array_assign;
    tc "sema: ok program" test_sema_ok_program;
    tc "sema: undeclared var" test_sema_undeclared_var;
    tc "sema: undeclared array" test_sema_undeclared_array;
    tc "sema: rank mismatch" test_sema_rank_mismatch;
    tc "sema: real subscript" test_sema_real_subscript;
    tc "sema: real to int assign" test_sema_real_to_int_assign;
    tc "sema: int to real ok" test_sema_int_to_real_ok;
    tc "sema: logical if" test_sema_logical_if;
    tc "sema: do index must be int" test_sema_do_index_must_be_int;
    tc "sema: call arity" test_sema_call_arity;
    tc "sema: call array param" test_sema_call_array_param;
    tc "sema: scalar for array param" test_sema_scalar_for_array_param;
    tc "sema: duplicate decl" test_sema_duplicate_decl;
    tc "sema: two mains" test_sema_two_mains;
    tc "sema: no main" test_sema_no_main;
    tc "sema: param without decl" test_sema_param_without_decl;
    tc "sema: intrinsic reserved" test_sema_intrinsic_reserved;
    tc "sema: do index assignment rejected" test_sema_do_index_assignment_rejected;
    tc "sema: nested do index reuse rejected" test_sema_nested_do_index_reuse_rejected;
    tc "sema: do index assignment in if rejected" test_sema_do_index_assignment_in_if_rejected;
    tc "sema: do index free after loop" test_sema_do_index_free_after_loop;
  ]
