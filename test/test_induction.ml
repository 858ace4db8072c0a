(* SSA overlay, induction-variable classification (the paper's
   Figure 2), and the INX check-rewriting pass. *)

open Util
module Ir = Nascent_ir
module Ssa = Nascent_analysis.Ssa
module Loops = Nascent_analysis.Loops
module Induction = Nascent_analysis.Induction
module Core = Nascent_core
module Config = Core.Config

let main_func src =
  let ir = ir_of_source src in
  Ir.Program.main_func ir

(* The phi definition for variable [name] at the header of the loop
   whose do-index is [index]. *)
let header_phi_of f ~index ~name =
  let ssa = Ssa.compute f in
  let loops = Loops.compute f in
  let loop =
    List.find
      (fun (l : Loops.loop) ->
        match l.Loops.meta with
        | Some (Ir.Types.Ldo d) -> d.Ir.Types.d_index.Ir.Types.vname = index
        | _ -> false)
      loops
  in
  let phi =
    List.find_map
      (fun (vid, did) ->
        match Ssa.def ssa did with
        | Ssa.Dphi { v; _ } when v.Ir.Types.vname = name -> Some (vid, did)
        | _ -> None)
      (Ssa.phis_at ssa loop.Loops.header)
  in
  match phi with
  | Some (_, did) -> (ssa, loop, did)
  | None -> Alcotest.failf "no phi for %s at header of loop %s" name index

(* Figure 2's loop:  j = j+1; k = k+m; m invariant. *)
let figure2 =
  "program fig2\n\
   integer i, j, k, m, n, a(1:100)\n\
   j = 0\n\
   k = 3\n\
   m = 5\n\
   n = 10\n\
   do i = 0, n - 1\n\
   j = j + 1\n\
   k = k + m\n\
   a(k) = 2 * m + 1\n\
   enddo\n\
   print k\n\
   end"

let test_ssa_phi_structure () =
  let f = main_func figure2 in
  let ssa, loop, did = header_phi_of f ~index:"i" ~name:"k" in
  ignore loop;
  match Ssa.def ssa did with
  | Ssa.Dphi { args; _ } -> Alcotest.(check int) "two args" 2 (List.length args)
  | _ -> Alcotest.fail "expected phi"

let test_fig2_j_linear () =
  let f = main_func figure2 in
  let ssa, loop, did = header_phi_of f ~index:"i" ~name:"j" in
  match Induction.classify ssa loop did with
  | Induction.Linear { step = 1; _ } -> ()
  | _ -> Alcotest.fail "j should be linear with step 1"

let test_fig2_k_linear_step_m () =
  (* k = k + m with m = 5: the paper's 5*h + 8 induction expression. *)
  let f = main_func figure2 in
  let ssa, loop, did = header_phi_of f ~index:"i" ~name:"k" in
  match Induction.classify ssa loop did with
  | Induction.Linear { step = 5; _ } -> ()
  | Induction.Linear { step; _ } -> Alcotest.failf "k linear but step %d" step
  | _ -> Alcotest.fail "k should be linear"

let test_fig2_index_linear () =
  let f = main_func figure2 in
  let ssa, loop, did = header_phi_of f ~index:"i" ~name:"i" in
  match Induction.classify ssa loop did with
  | Induction.Linear { step = 1; _ } -> ()
  | _ -> Alcotest.fail "i should be linear with step 1"

let test_polynomial_classification () =
  (* j = j + i: the paper's h*(h+1)/2 polynomial example. *)
  let src =
    "program poly\n\
     integer i, j, n\n\
     j = 0\n\
     n = 10\n\
     do i = 0, n\n\
     j = j + i\n\
     enddo\n\
     print j\n\
     end"
  in
  let f = main_func src in
  let ssa, loop, did = header_phi_of f ~index:"i" ~name:"j" in
  match Induction.classify ssa loop did with
  | Induction.Polynomial -> ()
  | Induction.Linear _ -> Alcotest.fail "j misclassified as linear"
  | Induction.Inv -> Alcotest.fail "j misclassified as invariant"
  | Induction.Unknown -> Alcotest.fail "j should be polynomial, got unknown"

let test_invariant_classification () =
  let src =
    "program inv\n\
     integer i, n, m\n\
     m = 7\n\
     n = 5\n\
     do i = 1, n\n\
     n = n + 0\n\
     enddo\n\
     print m\n\
     end"
  in
  let f = main_func src in
  let ssa = Ssa.compute f in
  let loops = Loops.compute f in
  let loop = List.hd loops in
  (* m's entry def is outside the loop *)
  let m_def =
    let b = Ir.Func.block f f.Ir.Func.entry in
    ignore b;
    (* find the assignment m = 7 *)
    let found = ref None in
    Ir.Func.iter_blocks
      (fun blk ->
        List.iteri
          (fun idx i ->
            match i with
            | Ir.Types.Assign (v, Ir.Types.Cint 7) when v.Ir.Types.vname = "m" -> (
                match Ssa.snapshot ssa ~bid:blk.Ir.Types.bid ~idx with
                | Some _ -> found := Some (blk.Ir.Types.bid, idx)
                | None -> ())
            | _ -> ())
          blk.Ir.Types.instrs)
      f;
    match !found with
    | Some _ ->
        (* classification of an out-of-loop def *)
        ()
    | None -> Alcotest.fail "m assignment not found"
  in
  ignore m_def;
  ignore loop

(* --- INX end-to-end -------------------------------------------------- *)

let optimize ~scheme ~kind src =
  let ir = ir_of_source src in
  let opt, stats = Core.Optimizer.optimize ~config:(Config.make ~scheme ~kind ()) ir in
  (ir, opt, stats)

let checks_of o = o.Nascent_interp.Run.checks

let equivalent ir opt =
  let o1 = Nascent_interp.Run.run ir and o2 = Nascent_interp.Run.run opt in
  Alcotest.(check bool) "trap equivalence" (o1.trap <> None) (o2.trap <> None);
  if o1.trap = None && o1.error = None then
    Alcotest.(check bool)
      "same output" true
      (List.length o1.printed = List.length o2.printed
      && List.for_all2 Nascent_interp.Value.equal o1.printed o2.printed);
  (o1, o2)

(* trfd-style: k is assigned inside the loop from invariant operands.
   PRX-LI cannot hoist (k is defined in the loop); INX-LI resolves k to
   n + 7 and hoists. *)
let trfd_like =
  "program trf\n\
   integer a(1:100), i, k, n, s\n\
   n = 20\n\
   s = 0\n\
   do i = 1, 50\n\
   k = n + 7\n\
   s = s + a(k)\n\
   enddo\n\
   print s\n\
   end"

let test_inx_li_beats_prx_li () =
  let ir1, opt_prx, _ = optimize ~scheme:Config.LI ~kind:Config.PRX trfd_like in
  let _, o_prx = equivalent ir1 opt_prx in
  let ir2, opt_inx, _ = optimize ~scheme:Config.LI ~kind:Config.INX trfd_like in
  let _, o_inx = equivalent ir2 opt_inx in
  Alcotest.(check bool)
    (Fmt.str "INX-LI (%d) < PRX-LI (%d)" (checks_of o_inx) (checks_of o_prx))
    true
    (checks_of o_inx < checks_of o_prx)

(* accumulator k = k + 2: linear in h but not the do index; PRX-LLS
   keeps the checks in the loop, INX-LLS hoists via the trip count. *)
let accumulator =
  "program acc\n\
   integer a(1:200), i, k, s\n\
   k = 10\n\
   s = 0\n\
   do i = 1, 40\n\
   k = k + 2\n\
   s = s + a(k)\n\
   enddo\n\
   print s\n\
   end"

let test_inx_lls_hoists_accumulator () =
  let ir1, opt_prx, _ = optimize ~scheme:Config.LLS ~kind:Config.PRX accumulator in
  let _, o_prx = equivalent ir1 opt_prx in
  let ir2, opt_inx, _ = optimize ~scheme:Config.LLS ~kind:Config.INX accumulator in
  let _, o_inx = equivalent ir2 opt_inx in
  Alcotest.(check bool)
    (Fmt.str "INX-LLS (%d) < PRX-LLS (%d)" (checks_of o_inx) (checks_of o_prx))
    true
    (checks_of o_inx < checks_of o_prx);
  Alcotest.(check bool)
    (Fmt.str "INX-LLS nearly total (%d)" (checks_of o_inx))
    true
    (checks_of o_inx <= 6)

let test_inx_accumulator_trap_preserved () =
  (* Same accumulator but overrunning the array: k reaches 10+2*40=90
     with a(1:80): both versions trap. *)
  let src =
    "program acct\n\
     integer a(1:80), i, k, s\n\
     k = 10\n\
     s = 0\n\
     do i = 1, 40\n\
     k = k + 2\n\
     s = s + a(k)\n\
     enddo\n\
     print s\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.LLS ~kind:Config.INX src in
  let o1, o2 = equivalent ir opt in
  Alcotest.(check bool) "naive traps" true (o1.trap <> None);
  Alcotest.(check bool) "optimized traps" true (o2.trap <> None)

let test_inx_zero_trip_accumulator () =
  let src =
    "program accz\n\
     integer a(1:10), i, k, n, s\n\
     k = 500\n\
     n = 0\n\
     s = 0\n\
     do i = 1, n\n\
     k = k + 2\n\
     s = s + a(k)\n\
     enddo\n\
     print s\n\
     end"
  in
  let ir, opt, _ = optimize ~scheme:Config.LLS ~kind:Config.INX src in
  let o1, o2 = equivalent ir opt in
  Alcotest.(check (option string)) "naive no trap" None o1.trap;
  Alcotest.(check (option string)) "optimized no trap" None o2.trap

let test_inx_all_schemes_sound () =
  List.iter
    (fun src ->
      let ir = ir_of_source src in
      List.iter
        (fun scheme ->
          let opt, _ =
            Core.Optimizer.optimize
              ~config:(Config.make ~scheme ~kind:Config.INX ())
              ir
          in
          let o1 = Nascent_interp.Run.run ir and o2 = Nascent_interp.Run.run opt in
          if (o1.trap <> None) <> (o2.trap <> None) then
            Alcotest.failf "trap mismatch under INX/%s" (Config.scheme_name scheme);
          if o1.trap = None && o1.error = None then begin
            if
              not
                (List.length o1.printed = List.length o2.printed
                && List.for_all2 Nascent_interp.Value.equal o1.printed o2.printed)
            then Alcotest.failf "output mismatch under INX/%s" (Config.scheme_name scheme);
            if o2.checks > o1.checks then
              Alcotest.failf "INX/%s increased checks %d -> %d"
                (Config.scheme_name scheme) o1.checks o2.checks
          end)
        Config.all_schemes)
    [ figure2; trfd_like; accumulator ]

(* What the rewrite did, read off the IR: some check of the rewritten
   copy differs from the original's, and some do-loop has its basic
   variable. *)
let test_inx_rewrite_stats () =
  let ir = ir_of_source accumulator in
  let copy = Ir.Transform.copy_program ir in
  let f = Ir.Program.main_func copy in
  ignore (Core.Induction_rewrite.run f);
  let checks f = List.map (fun m -> m.Ir.Types.chk) (Ir.Func.all_check_metas f) in
  Alcotest.(check bool)
    "rewrote checks" true
    (List.exists2
       (fun a b -> not (Nascent_checks.Check.equal a b))
       (checks (Ir.Program.main_func ir)) (checks f));
  Alcotest.(check bool)
    "materialized h" true
    (List.exists
       (function Ir.Types.Ldo d -> d.Ir.Types.d_basic <> None | Ir.Types.Lwhile _ -> false)
       f.Ir.Func.loops);
  (* the rewritten program still runs identically *)
  let o1 = Nascent_interp.Run.run ir and o2 = Nascent_interp.Run.run copy in
  Alcotest.(check bool) "same trap" (o1.trap <> None) (o2.trap <> None);
  Alcotest.(check int) "same checks (rewrite only)" o1.checks o2.checks

let test_trip_count_expr () =
  let d : Ir.Types.do_info =
    {
      d_preheader = 0;
      d_header = 0;
      d_body_entry = 0;
      d_latch = 0;
      d_exit = 0;
      d_index = { vname = "i"; vid = 0; vty = Ir.Types.Int };
      d_lo = Ir.Types.Cint 1;
      d_hi = Ir.Types.Cint 10;
      d_step = 1;
      d_basic = None;
    }
  in
  match Induction.trip_count_expr d with
  | Ir.Types.Cint 10 -> ()
  | e -> Alcotest.failf "expected 10, got %a" Ir.Expr.pp e

let suite =
  [
    tc "ssa: phi structure" test_ssa_phi_structure;
    tc "fig2: j linear step 1" test_fig2_j_linear;
    tc "fig2: k linear step m=5" test_fig2_k_linear_step_m;
    tc "fig2: index linear" test_fig2_index_linear;
    tc "polynomial classification" test_polynomial_classification;
    tc "invariant classification" test_invariant_classification;
    tc "INX-LI beats PRX-LI (trfd case)" test_inx_li_beats_prx_li;
    tc "INX-LLS hoists accumulator" test_inx_lls_hoists_accumulator;
    tc "INX accumulator trap preserved" test_inx_accumulator_trap_preserved;
    tc "INX zero-trip accumulator" test_inx_zero_trip_accumulator;
    tc "INX all schemes sound" test_inx_all_schemes_sound;
    tc "INX rewrite stats" test_inx_rewrite_stats;
    tc "trip count expr" test_trip_count_expr;
  ]
