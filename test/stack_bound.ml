(* Block transitions are tail calls: a run of any length takes a
   constant OCaml stack. The dune rule runs this executable with an
   8,000-word stack limit (OCAMLRUNPARAM=l=8000), under which a
   non-tail recursion 100,000 calls deep overflows; the programs below
   make well over 10^6 block transitions each, on the typed and on the
   generic closures, so a transition that pushes a frame overflows
   too. *)

module Ir = Nascent_ir
module T = Nascent_ir.Types
module Run = Nascent_interp.Run
module Config = Nascent_core.Config

let rec depth n = if n = 0 then 0 else 1 + depth (n - 1)

let test_limit_in_force () =
  match depth 100_000 with
  | _ -> Alcotest.fail "a 100,000-deep recursion fit in the stack: the limit is not in force"
  | exception Stack_overflow -> ()

(* Three transitions per do-loop trip (test, body, latch), more in the
   while loop with its if, and a call per outer trip whose callee loops
   too. *)
let source =
  "program spin\n\
   integer i, n, s, t, a(1:8)\n\
   n = 400000\n\
   s = 0\n\
   do i = 1, n\n\
   s = s + mod(i, 7)\n\
   enddo\n\
   t = 0\n\
   while t < 300000 do\n\
   t = t + 1\n\
   if mod(t, 2) = 0 then\n\
   a(1) = a(1) + 1\n\
   endif\n\
   endwhile\n\
   do i = 1, 2000\n\
   call fill(a, i)\n\
   enddo\n\
   print s\n\
   print t\n\
   print a(1) + a(8)\n\
   end\n\
   subroutine fill(b, k)\n\
   integer j, k, b(1:8)\n\
   do j = 1, 100\n\
   b(8) = b(8) + 1\n\
   enddo\n\
   end"

(* A never-called unit with an ill-typed store puts the program on the
   generic closures. *)
let generic prog =
  let p = Ir.Program.create ~main:prog.Ir.Program.main in
  Ir.Program.iter_funcs (Ir.Program.add p) prog;
  let f = Ir.Func.create ~name:"ill_typed" ~params:[] in
  let x = Ir.Func.fresh_var f ~name:"x" ~ty:T.Int in
  (Ir.Func.new_block f).T.instrs <- [ T.Assign (x, T.Creal 0.5) ];
  Ir.Program.add p f;
  p

let expected = [ 1200003; 300000; 150000 + 200000 ]

let run_to_end label prog =
  let o = Run.run prog in
  Alcotest.(check (option string)) (label ^ ": no trap") None o.Run.trap;
  Alcotest.(check (option string)) (label ^ ": no error") None o.Run.error;
  Alcotest.(check bool) (label ^ ": fuel left") false o.Run.fuel_exhausted;
  Alcotest.(check (list int))
    (label ^ ": output") expected
    (List.map (function Nascent_interp.Value.VInt n -> n | _ -> min_int) o.Run.printed)

let test_long_runs () =
  let naive = Ir.Lower.of_source source in
  let lls = fst (Nascent_core.Optimizer.optimize ~config:(Config.make ~scheme:Config.LLS ()) naive) in
  run_to_end "naive" naive;
  run_to_end "LLS" lls;
  run_to_end "naive, generic" (generic naive)

let () =
  Alcotest.run "nascent-rco-stack"
    [
      ( "interp",
        [
          Alcotest.test_case "stack: limit in force" `Quick test_limit_in_force;
          Alcotest.test_case "stack: block transitions are tail calls" `Quick test_long_runs;
        ] );
    ]
