(* End-to-end tests of lowering + the instrumented interpreter on
   naive-checked programs. *)

open Util

let test_arith () =
  let o = run_source "program t\ninteger x\nx = 2 + 3 * 4\nprint x\nend" in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 14 ] (printed_ints o)

let test_real_arith () =
  let o = run_source "program t\nreal x\nx = 1.5 * 4.0\nprint x\nend" in
  check_no_trap o;
  match o.printed with
  | [ Nascent_interp.Value.VReal f ] -> Alcotest.(check (float 1e-9)) "x" 6.0 f
  | _ -> Alcotest.fail "expected one real"

let test_int_promotes_to_real () =
  let o = run_source "program t\nreal x\nx = 1 + 0.5\nprint x\nend" in
  check_no_trap o;
  match o.printed with
  | [ Nascent_interp.Value.VReal f ] -> Alcotest.(check (float 1e-9)) "x" 1.5 f
  | _ -> Alcotest.fail "expected one real"

let test_intrinsics () =
  let o =
    run_source
      "program t\ninteger x\nx = mod(7, 3) + min(4, 2) + max(4, 2) + abs(-3)\nprint x\nend"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 1 + 2 + 4 + 3 ] (printed_ints o)

let test_if_branches () =
  let o =
    run_source
      "program t\ninteger n, r\nn = 5\nif n > 3 then\nr = 1\nelse\nr = 2\nendif\nprint r\nend"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 1 ] (printed_ints o)

let test_do_loop_sum () =
  let o =
    run_source
      "program t\ninteger i, s\ns = 0\ndo i = 1, 10\ns = s + i\nenddo\nprint s\nend"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 55 ] (printed_ints o)

let test_do_loop_zero_trip () =
  let o =
    run_source
      "program t\ninteger i, s\ns = 0\ndo i = 5, 1\ns = s + 1\nenddo\nprint s\nprint i\nend"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 0; 5 ] (printed_ints o)

let test_do_loop_negative_step () =
  let o =
    run_source
      "program t\ninteger i, s\ns = 0\ndo i = 10, 1, -2\ns = s + i\nenddo\nprint s\nend"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 10 + 8 + 6 + 4 + 2 ] (printed_ints o)

let test_do_bounds_evaluated_once () =
  (* Fortran semantics: modifying n inside the loop does not change the
     trip count. *)
  let o =
    run_source
      "program t\ninteger i, n, s\nn = 5\ns = 0\ndo i = 1, n\nn = 0\ns = s + 1\nenddo\nprint s\nend"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 5 ] (printed_ints o)

let test_while_loop () =
  let o =
    run_source
      "program t\ninteger n\nn = 1\nwhile n < 100 do\nn = n * 2\nendwhile\nprint n\nend"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 128 ] (printed_ints o)

let test_array_store_load () =
  let o =
    run_source
      "program t\ninteger i, a(1:10)\ndo i = 1, 10\na(i) = i * i\nenddo\nprint a(7)\nend"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 49 ] (printed_ints o)

let test_array_nonunit_lower_bound () =
  let o =
    run_source
      "program t\ninteger a(5:10)\na(5) = 1\na(10) = 2\nprint a(5) + a(10)\nend"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 3 ] (printed_ints o)

let test_array_2d () =
  let o =
    run_source
      "program t\n\
       integer i, j, m(1:3, 1:4)\n\
       do i = 1, 3\n\
       do j = 1, 4\n\
       m(i, j) = 10 * i + j\n\
       enddo\n\
       enddo\n\
       print m(2, 3)\n\
       end"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 23 ] (printed_ints o)

let test_trap_upper () =
  let o = run_source "program t\ninteger a(1:10), n\nn = 11\na(n) = 0\nend" in
  trap_expected o

let test_trap_lower () =
  let o = run_source "program t\ninteger a(5:10), n\nn = 4\na(n) = 0\nend" in
  trap_expected o

let test_trap_on_load () =
  let o = run_source "program t\ninteger a(1:10), n, x\nn = 0\nx = a(n)\nend" in
  trap_expected o

let test_no_trap_at_bounds () =
  let o = run_source "program t\ninteger a(1:10)\na(1) = 1\na(10) = 1\nend" in
  check_no_trap o

let test_checks_counted () =
  (* 10 iterations, 1 store with 1 dim = 2 checks per iteration. *)
  let o =
    run_source "program t\ninteger i, a(1:10)\ndo i = 1, 10\na(i) = 0\nenddo\nend"
  in
  check_no_trap o;
  Alcotest.(check int) "dynamic checks" 20 o.checks

let test_checks_counted_2d () =
  let o =
    run_source
      "program t\ninteger i, m(1:3, 1:4)\ndo i = 1, 3\nm(i, 2) = 0\nenddo\nend"
  in
  check_no_trap o;
  Alcotest.(check int) "dynamic checks" (3 * 4) o.checks

let test_symbolic_bounds () =
  let o =
    run_source
      "program t\n\
       integer n\n\
       n = 6\n\
       call fill(n)\n\
       end\n\
       subroutine fill(n)\n\
       integer n, i, a(1:n)\n\
       do i = 1, n\n\
       a(i) = i\n\
       enddo\n\
       print a(n)\n\
       end"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 6 ] (printed_ints o)

let test_symbolic_bounds_fixed_at_entry () =
  (* Reassigning n inside the subroutine must not move the array bound:
     a is dimensioned with the entry value of n. *)
  let o =
    run_source
      "program t\n\
       integer n\n\
       n = 6\n\
       call f(n)\n\
       end\n\
       subroutine f(n)\n\
       integer n, a(1:n)\n\
       n = 3\n\
       a(5) = 1\n\
       print a(5)\n\
       end"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 1 ] (printed_ints o)

let test_call_scalar_by_value () =
  let o =
    run_source
      "program t\n\
       integer n\n\
       n = 5\n\
       call bump(n)\n\
       print n\n\
       end\n\
       subroutine bump(k)\n\
       integer k\n\
       k = k + 1\n\
       print k\n\
       end"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 6; 5 ] (printed_ints o)

let test_call_array_by_reference () =
  let o =
    run_source
      "program t\n\
       integer a(1:5)\n\
       call setone(a)\n\
       print a(3)\n\
       end\n\
       subroutine setone(b)\n\
       integer i, b(1:5)\n\
       do i = 1, 5\n\
       b(i) = 1\n\
       enddo\n\
       end"
  in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 1 ] (printed_ints o)

let test_division_by_zero_is_error () =
  let o = run_source "program t\ninteger x, y\ny = 0\nx = 1 / y\nend" in
  Alcotest.(check bool) "error" true (o.error <> None);
  Alcotest.(check (option string)) "no trap" None o.trap

(* The unhappy paths must keep their classification AND their counters
   honest — cached cells replay these counters, so they are pinned
   here. A range violation is a trap even when the same statement would
   also divide by zero: the check runs first. *)
let test_trap_beats_division_error () =
  let o =
    run_source
      "program t\ninteger a(1:10), n, z, x\nn = 11\nz = 0\nx = a(n) / z\nend"
  in
  trap_expected o;
  Alcotest.(check (option string)) "no error" None o.error

(* ... and when the subscript is in range, the division error is
   reported as an error, with the preceding checks still counted. *)
let test_error_keeps_check_counters () =
  let o =
    run_source
      "program t\ninteger a(1:10), n, z, x\nn = 10\nz = 0\nx = a(n) / z\nend"
  in
  Alcotest.(check bool) "error" true (o.error <> None);
  Alcotest.(check (option string)) "no trap" None o.trap;
  Alcotest.(check int) "checks before the error are counted" 2 o.checks

(* A Cond_check whose guard is false evaluates the guard (counted in
   cond_guards and instruction units) but performs NO range check. LLS
   on a zero-trip loop produces exactly this shape: the hoisted
   preheader checks are guarded by the trip condition. *)
let optimize_lls src =
  let ir = ir_of_source src in
  let opt, _ =
    Nascent_core.Optimizer.optimize
      ~config:(Nascent_core.Config.make ~scheme:Nascent_core.Config.LLS ())
      ir
  in
  opt

let test_cond_check_guard_false_not_counted () =
  let opt =
    optimize_lls
      "program t\ninteger i, n, a(1:10)\nn = 0\ndo i = 1, n\na(i) = i\nenddo\nend"
  in
  let o = Nascent_interp.Run.run opt in
  check_no_trap o;
  Alcotest.(check bool) "guard evaluated" true (o.cond_guards > 0);
  Alcotest.(check int) "no check counted" 0 o.checks

let test_cond_check_guard_true_counted () =
  let opt =
    optimize_lls
      "program t\ninteger i, n, a(1:10)\nn = 10\ndo i = 1, n\na(i) = i\nenddo\nend"
  in
  let o = Nascent_interp.Run.run opt in
  check_no_trap o;
  Alcotest.(check bool) "guard evaluated" true (o.cond_guards > 0);
  Alcotest.(check bool) "guarded check performed" true (o.checks > 0);
  Alcotest.(check bool) "fewer than naive's 20" true (o.checks < 20)

let test_fuel_exhaustion () =
  let o =
    run_source ~fuel:1000 "program t\ninteger n\nwhile 1 < 2 do\nn = n + 1\nendwhile\nend"
  in
  Alcotest.(check bool) "fuel exhausted" true o.fuel_exhausted

(* Fuel exhaustion is reported as neither trap nor error, and the
   counters accumulated up to the cutoff survive into the outcome. *)
let test_fuel_exhaustion_counters () =
  let o =
    run_source ~fuel:500
      "program t\ninteger a(1:10)\nwhile 1 < 2 do\na(1) = 1\nendwhile\nend"
  in
  Alcotest.(check bool) "fuel exhausted" true o.fuel_exhausted;
  Alcotest.(check (option string)) "no trap" None o.trap;
  Alcotest.(check (option string)) "no error" None o.error;
  Alcotest.(check int) "checks counted up to cutoff" 100 o.checks;
  Alcotest.(check int) "instrs counted up to cutoff" 401 o.instrs

let test_return_stops_unit () =
  let o = run_source "program t\ninteger n\nn = 1\nprint n\nreturn\nprint 2\nend" in
  check_no_trap o;
  Alcotest.(check (list int)) "output" [ 1 ] (printed_ints o)

let test_strip_checks () =
  let ir = ir_of_source "program t\ninteger i, a(1:10)\ndo i = 1, 10\na(i) = 0\nenddo\nend" in
  let bare = Nascent_ir.Transform.strip_checks ir in
  let o = Nascent_interp.Run.run bare in
  Alcotest.(check int) "no checks" 0 o.checks;
  let o2 = Nascent_interp.Run.run ir in
  Alcotest.(check int) "original unchanged" 20 o2.checks

let test_instr_counts_positive () =
  let o = run_source "program t\ninteger x\nx = 1\nend" in
  Alcotest.(check bool) "instrs > 0" true (o.instrs > 0)

(* --- exact cutoffs ---------------------------------------------------- *)

(* Every instruction unit and every executed check burns one unit of
   fuel, and the run stops the moment the budget goes negative, so the
   counters at a cutoff are exact. The pins were recorded from the
   earlier tree-walking interpreter; each comment says where the
   cutoff falls. *)
let check_counters (instrs, checks, cond_guards) (o : Interp.Run.outcome) =
  Alcotest.(check (triple int int int))
    "instrs, checks, cond_guards" (instrs, checks, cond_guards)
    (o.instrs, o.checks, o.cond_guards)

let check_fuel_out (o : Interp.Run.outcome) =
  Alcotest.(check bool) "fuel exhausted" true o.fuel_exhausted;
  Alcotest.(check (option string)) "no trap" None o.trap;
  Alcotest.(check (option string)) "no error" None o.error

(* [print 7] costs units 1-2; the assignment's nodes are charged in
   preorder (product, first sum, 1, 2, ...), so fuel runs out at the
   sixth unit, the literal 2. *)
let test_fuel_mid_expression () =
  let o =
    run_source ~fuel:5 "program t\ninteger x\nprint 7\nx = (1 + 2) * (3 + 4)\nprint x\nend"
  in
  check_fuel_out o;
  Alcotest.(check (list int)) "printed before the cutoff" [ 7 ] (printed_ints o);
  check_counters (6, 0, 0) o

(* [i = 7] costs 2 units, the lower check of a(mod(i, 5) + 1) one
   more; its opaque atom mod(i, 5) then runs out at its second node. *)
let test_fuel_in_opaque_atom () =
  let o =
    run_source ~fuel:4 "program t\ninteger i, a(1:10)\ni = 7\na(mod(i, 5) + 1) = 0\nend"
  in
  check_fuel_out o;
  check_counters (4, 1, 0) o

(* The subroutine's loop runs out after its second iteration's store:
   the caller's first print is out, its second is not. *)
let test_fuel_in_callee () =
  let o =
    run_source ~fuel:40
      "program t\n\
       integer n\n\
       n = 3\n\
       print n\n\
       call f(n)\n\
       print n\n\
       end\n\
       subroutine f(k)\n\
       integer k, i, a(1:10)\n\
       do i = 1, k\n\
       a(i) = i\n\
       enddo\n\
       end"
  in
  check_fuel_out o;
  Alcotest.(check (list int)) "only the caller's first print" [ 3 ] (printed_ints o);
  check_counters (37, 4, 0) o

(* y = 6 and z = 0 cost 4 units; then +, 1, *, /, y, z are charged
   before the division fails, and the literal 2 never is. *)
let test_division_mid_expression () =
  let o =
    run_source "program t\ninteger x, y, z\ny = 6\nz = 0\nx = 1 + y / z * 2\nprint x\nend"
  in
  Alcotest.(check (option string)) "error" (Some "integer division by zero") o.error;
  Alcotest.(check (option string)) "no trap" None o.trap;
  check_counters (10, 0, 0) o

(* LLS hoists a(i)'s upper check into the preheader behind the trip
   guard 1 <= n; with n = 11 the guard holds and the hoisted check
   traps before the loop runs. *)
let test_trap_through_cond_check () =
  let opt =
    optimize_lls "program t\ninteger i, n, a(1:10)\nn = 11\ndo i = 1, n\na(i) = i\nenddo\nend"
  in
  let o = Nascent_interp.Run.run opt in
  trap_expected o;
  Alcotest.(check (option string)) "no error" None o.error;
  check_counters (10, 1, 1) o

(* --- hand-built IR: Run.run never raises -------------------------------- *)

module T = Nascent_ir.Types

(* A program whose main unit is one block, filled by [build]. *)
let hand_built ?(callees = []) build =
  let f = Ir.Func.create ~name:"main" ~params:[] in
  let b = Ir.Func.new_block f in
  build f b;
  let p = Ir.Program.create ~main:"main" in
  List.iter (Ir.Program.add p) (f :: callees);
  p

let check_error ~instrs expected (o : Interp.Run.outcome) =
  Alcotest.(check (option string)) "error" (Some expected) o.error;
  Alcotest.(check (option string)) "no trap" None o.trap;
  Alcotest.(check int) "instrs" instrs o.instrs

let test_ill_typed_value_is_error () =
  let a = { T.aname = "a"; aid = 0; aty = T.Int; adims = [ (T.Bconst 1, T.Bconst 10) ] } in
  (* a real subscript: the index node is charged, then rejected *)
  Interp.Run.run (hand_built (fun _ b -> b.T.instrs <- [ T.Store (a, [ T.Creal 1.5 ], T.Cint 0) ]))
  |> check_error ~instrs:1 "ill-typed value: expected an integer";
  (* an integer branch condition, after the terminator's unit *)
  Interp.Run.run (hand_built (fun _ b -> b.T.term <- T.Branch (T.Cint 1, 0, 0)))
  |> check_error ~instrs:2 "ill-typed value: expected a logical";
  (* a real scalar in an executed check: the check is counted, then
     its atom is rejected *)
  let o =
    Interp.Run.run
      (hand_built (fun f b ->
           let x = Ir.Func.fresh_var f ~name:"x" ~ty:T.Real in
           let atom = Ir.Atoms.of_var f.Ir.Func.atoms x in
           let chk = Nascent_checks.Check.make (Nascent_checks.Linexpr.of_atom atom) 10 in
           b.T.instrs <-
             [ T.Check { T.chk; src_array = "a"; src_dim = 0; kind = T.Upper } ]))
  in
  check_error ~instrs:0 "ill-typed value: expected an integer" o;
  Alcotest.(check int) "check counted" 1 o.checks

(* Only Value.t storage can hold a real in an integer scalar, as the
   tree walk did: the store forces the generic closures. *)
let test_ill_typed_store_runs_generic () =
  let o =
    Interp.Run.run
      (hand_built (fun f b ->
           let x = Ir.Func.fresh_var f ~name:"x" ~ty:T.Int in
           b.T.instrs <- [ T.Assign (x, T.Creal 0.5); T.Print (T.Evar x) ]))
  in
  check_no_trap o;
  Alcotest.(check bool) "prints the real" true (o.printed = [ Interp.Value.VReal 0.5 ]);
  Alcotest.(check int) "instrs" 5 o.instrs

let test_argument_count_mismatch_is_error () =
  let callee () =
    let f = Ir.Func.create ~name:"sub" ~params:[] in
    let k = Ir.Func.fresh_var f ~name:"k" ~ty:T.Int in
    f.Ir.Func.params <- [ T.Pscalar k ];
    ignore (Ir.Func.new_block f);
    f
  in
  let call args =
    Interp.Run.run
      (hand_built ~callees:[ callee () ] (fun _ b -> b.T.instrs <- [ T.Call ("sub", args) ]))
  in
  (* the call's unit, then its arguments, then the mismatch *)
  call [] |> check_error ~instrs:1 "sub expects 1 argument(s), got 0";
  call [ T.Aexpr (T.Cint 1); T.Aexpr (T.Cint 2) ]
  |> check_error ~instrs:3 "sub expects 1 argument(s), got 2";
  (* a main unit with a parameter fails before its first unit *)
  let p = Ir.Program.create ~main:"sub" in
  Ir.Program.add p (callee ());
  Interp.Run.run p |> check_error ~instrs:0 "sub expects 1 argument(s), got 0"

(* One subscript for a rank-2 array: the load and its subscript are
   charged, then the access is rejected. *)
let test_rank_mismatch_is_error () =
  let a =
    let d = (T.Bconst 1, T.Bconst 3) in
    { T.aname = "a"; aid = 0; aty = T.Int; adims = [ d; d ] }
  in
  Interp.Run.run (hand_built (fun _ b -> b.T.instrs <- [ T.Print (T.Eload (a, [ T.Cint 1 ])) ]))
  |> check_error ~instrs:2 "rank mismatch accessing a"

(* --- golden dynamic counts --------------------------------------------- *)

(* Every benchmark naive, under each scheme x check kind, and under
   ALL+O; then 100 random programs from fixed seeds, naive and LLS.
   interp_counts.expected pins each cell's counters and a digest of
   what it printed and how it stopped. The earlier tree-walking
   interpreter wrote the file; the closure compiler must reproduce it
   exactly. *)
module Config = Nascent_core.Config

let optimize config ir = fst (Nascent_core.Optimizer.optimize ~config ir)

let golden_line label (o : Interp.Run.outcome) =
  let b = Buffer.create 256 in
  List.iter
    (function
      | Interp.Value.VInt i -> Printf.bprintf b "int %d\n" i
      | Interp.Value.VReal f -> Printf.bprintf b "real %h\n" f
      | Interp.Value.VBool v -> Printf.bprintf b "bool %b\n" v)
    o.printed;
  Printf.bprintf b "trap %s\nerror %s\nfuel %b\n"
    (Option.value ~default:"none" o.trap)
    (Option.value ~default:"none" o.error)
    o.fuel_exhausted;
  Printf.sprintf "%s instrs=%d checks=%d cond_guards=%d out=%s" label o.instrs o.checks
    o.cond_guards
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* (label, program, fuel) *)
let bench_cells =
  lazy
    (List.concat_map
       (fun (bm : Nascent_benchmarks.Suite.benchmark) ->
         let ir = ir_of_source bm.source in
         let cell name config = (bm.name ^ " " ^ name, optimize config ir, None) in
         ((bm.name ^ " naive", ir, None)
         :: List.concat_map
              (fun kind ->
                List.map
                  (fun scheme ->
                    cell
                      (Config.scheme_name scheme ^ "/" ^ Config.kind_name kind)
                      (Config.make ~scheme ~kind ()))
                  Config.extended_schemes)
              [ Config.PRX; Config.INX ])
         @ [ cell "ALL+O" (Config.make ~scheme:Config.ALL ~oracle:true ()) ])
       Nascent_benchmarks.Suite.all)

let random_cells () =
  List.concat_map
    (fun seed ->
      let src =
        QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) Test_random.gen_program
      in
      let ir = ir_of_source src in
      let fuel = Some Test_random.fuel in
      let lls = optimize (Config.make ~scheme:Config.LLS ()) ir in
      [
        (Printf.sprintf "random-%03d naive" seed, ir, fuel);
        (Printf.sprintf "random-%03d LLS" seed, lls, fuel);
      ])
    (List.init 100 succ)

let run_cell (label, prog, fuel) = golden_line label (Interp.Run.run ?fuel prog)

let bench_lines = lazy (List.map run_cell (Lazy.force bench_cells))

let expected_lines =
  lazy
    (In_channel.with_open_bin "interp_counts.expected" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) ""))

(* Each line starts with its cell's label, so a failure names the cell. *)
let check_golden ~random lines =
  let expected =
    List.filter
      (fun l -> String.starts_with ~prefix:"random-" l = random)
      (Lazy.force expected_lines)
  in
  Alcotest.(check int) "cells" (List.length expected) (List.length lines);
  List.iter2 (Alcotest.(check string) "golden cell") expected lines

let test_golden_benchmarks () = check_golden ~random:false (Lazy.force bench_lines)
let test_golden_random () = check_golden ~random:true (List.map run_cell (random_cells ()))

(* A never-called unit with an ill-typed store puts the whole program
   on Value.t storage and the generic closures, which must reproduce
   the same cells. *)
let with_ill_typed_unit prog =
  let p = Ir.Program.create ~main:prog.Ir.Program.main in
  Ir.Program.iter_funcs (Ir.Program.add p) prog;
  let f = Ir.Func.create ~name:"ill_typed" ~params:[] in
  let x = Ir.Func.fresh_var f ~name:"x" ~ty:T.Int in
  (Ir.Func.new_block f).T.instrs <- [ T.Assign (x, T.Creal 0.5) ];
  Ir.Program.add p f;
  p

let test_golden_generic () =
  check_golden ~random:false
    (List.map
       (fun (label, prog, fuel) -> run_cell (label, with_ill_typed_unit prog, fuel))
       (Lazy.force bench_cells))

(* The same 180 cells on two domains: a run's compiled code is its own,
   so concurrent runs of one program must not disturb each other. *)
let test_golden_parallel () =
  let pool = Nascent_support.Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Nascent_support.Pool.shutdown pool) @@ fun () ->
  Alcotest.(check (list string))
    "jobs=2 = serial" (Lazy.force bench_lines)
    (Nascent_support.Pool.parallel_map pool run_cell (Lazy.force bench_cells))

(* --- fuel sweep: fused operands = generic closures --------------------- *)

(* Together these cover every fused operand shape: leaves on the left,
   on the right and on both sides of int and real operations and
   comparisons; [var +- const] operands and integer scalars inside real
   operations; increments [v = v + 1], [s = s + i] and [x = x + i];
   rank-1 to rank-3 loads and stores with variable, constant, offset and
   expression subscripts; checks over variable and opaque atoms, and
   (under LLS) cond checks; a division by zero and a memory fault in
   the left operand of a fused node. *)
let fused_shapes =
  "program fused\n\
   integer i, m, n, s, a(1:4), b(0:3, 1:3), c(1:2, 0:2, 2:3)\n\
   real x, y, r(0:3), p(0:1, 1:2), q(1:2, 1:2, 1:2), w(1:4, 1:2)\n\
   n = 3\n\
   m = 0\n\
   s = 1\n\
   x = 0.5\n\
   do i = 1, n\n\
   m = m + 1\n\
   s = s + i\n\
   s = 2 * s - i\n\
   s = i + (s * 2) - 1\n\
   if s > 100 then\n\
   s = 100 - s\n\
   endif\n\
   if (s - 1) >= i then\n\
   s = s - 1\n\
   endif\n\
   if n < s * 2 then\n\
   s = s / 2\n\
   endif\n\
   a(i) = s\n\
   a(i + 1) = a(i) - 1\n\
   b(i, 2) = a(1) + i\n\
   b(i - 1, 3) = b(i, 2) * 2\n\
   c(1, i - 1, 2) = b(i - 1, 1) + c(2, 0, 3)\n\
   c(mod(i, 2) + 1, i - 1, 3) = c(1, i - 1, 2) + s\n\
   x = x + 0.5 * i\n\
   x = x + i\n\
   y = x / 2.0\n\
   r(i) = y - x\n\
   y = r(i - 1) + y\n\
   w(i + 1, 2) = w(i, 1) + m\n\
   y = w(i + 1, 2) - y\n\
   p(mod(i, 2), 1) = r(i) * x\n\
   q(1, 2, mod(i, 2) + 1) = q(1, 1, 1) + y\n\
   q(mod(i, 2) + 1, 1, 2) = 1.0\n\
   if x >= 1.0 then\n\
   y = y + 1.0\n\
   endif\n\
   if x < y then\n\
   x = 2.0 - y\n\
   endif\n\
   enddo\n\
   print s\n\
   print m\n\
   print a(1) + a(2) + a(3) + a(4)\n\
   print b(0, 3) + b(1, 2) + b(2, 3) + b(3, 2)\n\
   print c(1, 0, 2) + c(1, 2, 2) + c(2, 1, 3) + c(1, 2, 3)\n\
   print x\n\
   print y\n\
   print r(0) + r(1) + r(2) + r(3)\n\
   print w(2, 2) + w(3, 2) + w(4, 2)\n\
   print p(0, 1) + p(1, 1)\n\
   print q(1, 2, 1) + q(1, 2, 2) + q(1, 1, 1)\n\
   end"

(* n / z fails inside the left operand of the sum; s is never charged. *)
let fused_division =
  "program divz\n\
   integer i, n, z, s\n\
   n = 4\n\
   z = 0\n\
   s = 0\n\
   do i = 1, n\n\
   s = s + i\n\
   enddo\n\
   print s\n\
   s = (n / z) + s\n\
   print s\n\
   end"

(* With its checks stripped, c(1, 1, 3) is read past the payload's end
   as the left operand of the sum; with them, the check traps first. *)
let fused_fault =
  "program fault\n\
   integer i, s, c(1:2, 1:2, 1:2)\n\
   c(2, 2, 2) = 5\n\
   s = 0\n\
   do i = 1, 3\n\
   s = c(1, 1, i) + s\n\
   print s\n\
   enddo\n\
   end"

(* Block transitions across a call, a while loop and an if inside it;
   under LLS the do loop's checks become cond checks in its preheader. *)
let fused_calls =
  "program calls\n\
   integer i, n, m, s, a(1:6)\n\
   real x, w(0:4, 1:3)\n\
   n = 4\n\
   m = 1\n\
   s = 0\n\
   x = 0.25\n\
   do i = 1, n\n\
   a(i + 1) = a(i) + i\n\
   call acc(a, w, i, x)\n\
   enddo\n\
   while s < 20 do\n\
   s = s + a(m)\n\
   m = m + 1\n\
   if m > n then\n\
   m = 1\n\
   endif\n\
   endwhile\n\
   print s\n\
   print m\n\
   print w(2, 1) + w(3, 2)\n\
   end\n\
   subroutine acc(b, v, k, y)\n\
   integer k, b(1:6)\n\
   real y, v(0:4, 1:3)\n\
   b(k + 1) = b(k) + k\n\
   v(k, 1) = v(k - 1, 2) + y * k\n\
   v(k - 1, 2) = y + k\n\
   end"

(* At every fuel from 0 to a full run's count the typed run and the
   generic one stop at the same unit, with the same outcome; returns
   that outcome's line at each fuel. *)
let fuel_sweep name prog =
  let full = Interp.Run.run prog in
  let units = full.instrs + full.checks in
  Alcotest.(check bool) (name ^ ": full run completes") false full.fuel_exhausted;
  Alcotest.(check bool)
    (name ^ ": one unit short runs out") true
    (Interp.Run.run ~fuel:(units - 1) prog).fuel_exhausted;
  let generic = with_ill_typed_unit prog in
  List.init (units + 1) (fun fuel ->
      let label = Printf.sprintf "%s, fuel %d" name fuel in
      let line = golden_line label (Interp.Run.run ~fuel prog) in
      Alcotest.(check string) label (golden_line label (Interp.Run.run ~fuel generic)) line;
      line)

(* fuel_sweep.expected pins every line of every sweep: the dispatcher
   interpreter that preceded the threaded blocks wrote it, and the
   counting model must not move under any later rewrite. *)
let test_fuel_sweep () =
  let shapes = ir_of_source fused_shapes in
  let o = Interp.Run.run (ir_of_source fused_division) in
  Alcotest.(check (option string)) "division" (Some "integer division by zero") o.error;
  let fault = ir_of_source fused_fault in
  trap_expected (Interp.Run.run fault);
  let bare = Nascent_ir.Transform.strip_checks fault in
  Alcotest.(check (option string))
    "fault" (Some "memory fault on c (offset 8)") (Interp.Run.run bare).error;
  let calls = ir_of_source fused_calls in
  let calls_lls = optimize (Config.make ~scheme:Config.LLS ()) calls in
  let o = Interp.Run.run calls_lls in
  check_no_trap o;
  Alcotest.(check bool) "calls LLS: cond checks run" true (o.cond_guards > 0);
  let lines =
    List.concat
      [
        fuel_sweep "shapes naive" shapes;
        fuel_sweep "shapes LLS" (optimize (Config.make ~scheme:Config.LLS ()) shapes);
        fuel_sweep "division" (ir_of_source fused_division);
        fuel_sweep "fault naive" fault;
        fuel_sweep "fault stripped" bare;
        fuel_sweep "calls naive" calls;
        fuel_sweep "calls LLS" calls_lls;
      ]
  in
  let expected =
    In_channel.with_open_bin "fuel_sweep.expected" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Alcotest.(check int) "sweep lines" (List.length expected) (List.length lines);
  List.iter2 (Alcotest.(check string) "fuel sweep line") expected lines

let suite =
  [
    tc "arith" test_arith;
    tc "real arith" test_real_arith;
    tc "int promotes to real" test_int_promotes_to_real;
    tc "intrinsics" test_intrinsics;
    tc "if branches" test_if_branches;
    tc "do loop sum" test_do_loop_sum;
    tc "do loop zero trip" test_do_loop_zero_trip;
    tc "do loop negative step" test_do_loop_negative_step;
    tc "do bounds evaluated once" test_do_bounds_evaluated_once;
    tc "while loop" test_while_loop;
    tc "array store/load" test_array_store_load;
    tc "array non-unit lower bound" test_array_nonunit_lower_bound;
    tc "array 2d" test_array_2d;
    tc "trap: upper" test_trap_upper;
    tc "trap: lower" test_trap_lower;
    tc "trap: on load" test_trap_on_load;
    tc "no trap at bounds" test_no_trap_at_bounds;
    tc "checks counted" test_checks_counted;
    tc "checks counted 2d" test_checks_counted_2d;
    tc "symbolic bounds" test_symbolic_bounds;
    tc "symbolic bounds fixed at entry" test_symbolic_bounds_fixed_at_entry;
    tc "call: scalar by value" test_call_scalar_by_value;
    tc "call: array by reference" test_call_array_by_reference;
    tc "division by zero is error" test_division_by_zero_is_error;
    tc "trap beats division error" test_trap_beats_division_error;
    tc "error keeps check counters" test_error_keeps_check_counters;
    tc "cond check guard false not counted" test_cond_check_guard_false_not_counted;
    tc "cond check guard true counted" test_cond_check_guard_true_counted;
    tc "fuel exhaustion" test_fuel_exhaustion;
    tc "fuel exhaustion counters" test_fuel_exhaustion_counters;
    tc "return stops unit" test_return_stops_unit;
    tc "strip checks" test_strip_checks;
    tc "instr counts positive" test_instr_counts_positive;
    tc "fuel cutoff mid-expression" test_fuel_mid_expression;
    tc "fuel cutoff in an opaque check atom" test_fuel_in_opaque_atom;
    tc "fuel cutoff in a callee" test_fuel_in_callee;
    tc "division by zero mid-expression" test_division_mid_expression;
    tc "trap through a cond-check guard" test_trap_through_cond_check;
    tc "ill-typed value is an error" test_ill_typed_value_is_error;
    tc "ill-typed store runs generic" test_ill_typed_store_runs_generic;
    tc "argument count mismatch is an error" test_argument_count_mismatch_is_error;
    tc "rank mismatch is an error" test_rank_mismatch_is_error;
    tc "golden counts: benchmarks" test_golden_benchmarks;
    tc "golden counts: random programs" test_golden_random;
    tc "golden counts: generic closures" test_golden_generic;
    tc "golden counts: 2 domains = serial" test_golden_parallel;
    tc "fuel sweep: fused = generic" test_fuel_sweep;
  ]
