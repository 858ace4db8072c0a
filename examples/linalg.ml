(* Domain example: dense linear algebra (the linpackd-style workload).

   Demonstrates the library as an embedded compiler: build a MiniF
   matrix-vector kernel, optimize it under PRX and INX check
   construction, and inspect which checks each leaves behind — the
   pivot row index loaded from memory is the classic check that no
   static scheme can hoist.

   Run with:  dune exec examples/linalg.exe
*)

module Ir = Nascent_ir
module Core = Nascent_core
module Config = Core.Config
module Run = Nascent_interp.Run

let source =
  {|
program linalg
  integer n, i, j
  real a(1:24, 1:24), x(1:24), y(1:24)
  integer perm(1:24)
  real s

  n = 24

  do j = 1, n
    do i = 1, n
      a(i, j) = 1.0 / (i + j - 1)
    enddo
    x(j) = 1.0
    perm(j) = n - j + 1
  enddo

  ! y = A x, column order
  do i = 1, n
    y(i) = 0.0
  enddo
  do j = 1, n
    do i = 1, n
      y(i) = y(i) + a(i, j) * x(j)
    enddo
  enddo

  ! permuted gather: the subscript perm(i) is loaded from memory, so
  ! its range checks cannot be hoisted by any placement scheme
  s = 0.0
  do i = 1, n
    s = s + y(perm(i))
  enddo
  print s
end
|}

let count_remaining_checks prog =
  List.fold_left
    (fun acc f ->
      let _, c = Ir.Func.static_counts f in
      acc + c)
    0
    (Ir.Program.funcs_sorted prog)

let () =
  let naive = Ir.Lower.of_source source in
  let o0 = Run.run naive in
  Format.printf "naive: %d dynamic checks (%d static)@.@." o0.Run.checks
    (count_remaining_checks naive);
  List.iter
    (fun kind ->
      Format.printf "-- %s checks --@." (Config.kind_name kind);
      List.iter
        (fun scheme ->
          let config = Config.make ~scheme ~kind () in
          let optimized, _ = Core.Optimizer.optimize ~config naive in
          let o = Run.run optimized in
          assert (o.Run.printed = o0.Run.printed);
          Format.printf "  %-4s: %6d dynamic, %3d static remain@."
            (Config.scheme_name scheme) o.Run.checks (count_remaining_checks optimized))
        [ Config.NI; Config.SE; Config.LI; Config.LLS ])
    [ Config.PRX; Config.INX ];
  (* The checks LLS cannot remove: show them. *)
  let optimized, _ =
    Core.Optimizer.optimize ~config:(Config.make ~scheme:Config.LLS ()) naive
  in
  Format.printf "@.checks remaining after LLS (the perm(i) gather):@.";
  Ir.Program.iter_funcs
    (fun f ->
      List.iter
        (fun (m : Ir.Types.check_meta) ->
          Format.printf "  %a@." Ir.Printer.pp_instr (Ir.Types.Check m))
        (Ir.Func.all_check_metas f))
    optimized
