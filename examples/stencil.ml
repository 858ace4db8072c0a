(* Domain example: a 2-D five-point stencil sweep (the arc2d-style
   workload from the paper's motivation) compared under every placement
   scheme.

   Shows the canonical experiment a compiler writer would run: how many
   of the naive per-access checks does each scheme remove on a real
   loop nest, and what does each scheme actually do to the IR?

   Run with:  dune exec examples/stencil.exe
*)

module Ir = Nascent_ir
module Core = Nascent_core
module Config = Core.Config
module Run = Nascent_interp.Run

let source =
  {|
program stencil
  integer m, i, j, t, iters
  real grid(0:33, 0:33), next(0:33, 0:33)
  real total
  m = 32
  iters = 4

  do j = 0, m + 1
    do i = 0, m + 1
      grid(i, j) = 0.01 * (i + j)
      next(i, j) = 0.0
    enddo
  enddo

  do t = 1, iters
    ! interior five-point update
    do j = 1, m
      do i = 1, m
        next(i, j) = 0.25 * (grid(i - 1, j) + grid(i + 1, j) + grid(i, j - 1) + grid(i, j + 1))
      enddo
    enddo
    do j = 1, m
      do i = 1, m
        grid(i, j) = next(i, j)
      enddo
    enddo
  enddo

  total = 0.0
  do j = 1, m
    do i = 1, m
      total = total + grid(i, j)
    enddo
  enddo
  print total
end
|}

let () =
  let naive = Ir.Lower.of_source source in
  let o0 = Run.run naive in
  Format.printf "naive: %d dynamic checks, %d instruction units@.@." o0.Run.checks
    o0.Run.instrs;
  Format.printf "%-6s %14s %12s %10s@." "scheme" "checks after" "%eliminated" "hoisted";
  List.iter
    (fun scheme ->
      let config = Config.make ~scheme () in
      let optimized, stats = Core.Optimizer.optimize ~config naive in
      let c = stats.Core.Optimizer.counts in
      let o = Run.run optimized in
      assert (o.Run.printed = o0.Run.printed);
      Format.printf "%-6s %14d %11.1f%% %10d@." (Config.scheme_name scheme) o.Run.checks
        (100.0 *. float_of_int (o0.Run.checks - o.Run.checks) /. float_of_int o0.Run.checks)
        (c.hoisted_invariant + c.hoisted_linear))
    Config.all_schemes;
  (* show what LLS left in the hot loop *)
  let optimized, _ =
    Core.Optimizer.optimize ~config:(Config.make ~scheme:Config.LLS ()) naive
  in
  Format.printf "@.=== IR after LLS ===@.%s@." (Ir.Printer.program_to_string optimized)
