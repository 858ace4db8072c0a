(* Property-based soundness fuzzing: random MiniF programs, every
   placement scheme.

   The invariants are the paper's behaviour-preservation contract
   (section 3): for every generated program and every configuration,
   the optimized program
   - traps iff the naive program traps,
   - errors iff the naive program errors,
   - prints the same values when neither happens,
   - never performs more dynamic checks under NI, CS and MCM, and
     only a bounded number more under the other placements,
   and optimization is idempotent in behaviour (a second round changes
   nothing observable).

   Programs are generated as source text over a fixed declaration pool,
   with subscripts biased towards—but not limited to—in-range values,
   so both trapping and clean executions are exercised. All loops are
   bounded by construction; a fuel limit is a backstop only. *)

module Ir = Nascent_ir
module Core = Nascent_core
module Config = Core.Config
module Universe = Nascent_checks.Universe
module Run = Nascent_interp.Run
module G = QCheck.Gen

(* --- generator -------------------------------------------------------- *)

let int_vars = [ "i"; "j"; "k"; "n"; "m" ]

(* (name, dimension spec, in-range index upper bound) *)
let arrays = [ ("a", "(1:10)", 10); ("b", "(0:19)", 19); ("c", "(1:6, 1:6)", 6) ]

let gen_var = G.oneofl int_vars

let rec gen_int_expr depth : string G.t =
  if depth = 0 then G.oneof [ G.map string_of_int (G.int_range (-3) 25); gen_var ]
  else
    G.frequency
      [
        (2, G.map string_of_int (G.int_range (-3) 25));
        (3, gen_var);
        ( 2,
          G.map2 (Printf.sprintf "(%s + %s)") (gen_int_expr (depth - 1))
            (gen_int_expr (depth - 1)) );
        ( 2,
          G.map2 (Printf.sprintf "(%s - %s)") (gen_int_expr (depth - 1))
            (gen_int_expr (depth - 1)) );
        ( 1,
          G.map2
            (fun c e -> Printf.sprintf "(%d * %s)" c e)
            (G.int_range (-2) 3) (gen_int_expr (depth - 1)) );
        ( 1,
          G.map2
            (fun e c -> Printf.sprintf "mod(%s, %d)" e c)
            (gen_int_expr (depth - 1)) (G.int_range 1 7) );
        (1, G.map (Printf.sprintf "a(%s)") (gen_idx (depth - 1)));
        (1, G.map (Printf.sprintf "b(%s)") (gen_idx (depth - 1)));
      ]

(* subscripts: mostly safe shapes, occasionally wild *)
and gen_idx depth : string G.t =
  G.frequency
    [
      (3, gen_var);
      (3, G.map string_of_int (G.int_range 1 6));
      (3, G.map (Printf.sprintf "(mod(%s, 5) + 1)") gen_var);
      (2, G.map (Printf.sprintf "(%s + 1)") gen_var);
      (2, G.map (Printf.sprintf "(%s - 1)") gen_var);
      (1, G.map (Printf.sprintf "(2 * %s - 1)") gen_var);
      (1, if depth > 0 then gen_int_expr (depth - 1) else gen_var);
    ]

let gen_rel = G.oneofl [ "<"; "<="; ">"; ">="; "="; "/=" ]

let gen_cond depth =
  G.map3
    (fun a op b -> Printf.sprintf "%s %s %s" a op b)
    (gen_int_expr depth) gen_rel (gen_int_expr depth)

let indent n = String.make (2 * n) ' '

(* [busy] holds the indices of enclosing do loops: Fortran (and our
   sema) forbid assigning them or reusing them as nested indices. *)
let rec gen_stmts ~depth ~budget ~level ~busy : string list G.t =
  if budget <= 0 then G.return []
  else
    let open G in
    gen_stmt ~depth ~budget ~level ~busy >>= fun (s, used) ->
    gen_stmts ~depth ~budget:(budget - used) ~level ~busy >>= fun rest -> return (s @ rest)

and gen_stmt ~depth ~budget ~level ~busy : (string list * int) G.t =
  let open G in
  let pad = indent level in
  let assignable = List.filter (fun v -> not (List.mem v busy)) int_vars in
  let assign =
    map2
      (fun v e -> ([ Printf.sprintf "%s%s = %s" pad v e ], 1))
      (oneofl assignable) (gen_int_expr 2)
  in
  let store =
    let arr1 =
      map2
        (fun (a, _, _) (i, e) -> ([ Printf.sprintf "%s%s(%s) = %s" pad a i e ], 1))
        (oneofl [ List.nth arrays 0; List.nth arrays 1 ])
        (pair (gen_idx 1) (gen_int_expr 2))
    in
    let arr2 =
      map3
        (fun i1 i2 e -> ([ Printf.sprintf "%sc(%s, %s) = %s" pad i1 i2 e ], 1))
        (gen_idx 0) (gen_idx 0) (gen_int_expr 1)
    in
    frequency [ (3, arr1); (1, arr2) ]
  in
  let print_stmt = map (fun e -> ([ Printf.sprintf "%sprint %s" pad e ], 1)) (gen_int_expr 1) in
  let if_stmt =
    if depth = 0 then assign
    else
      gen_cond 1 >>= fun cond ->
      gen_stmts ~depth:(depth - 1) ~budget:(min budget 3) ~level:(level + 1) ~busy
      >>= fun then_ ->
      gen_stmts ~depth:(depth - 1) ~budget:2 ~level:(level + 1) ~busy >>= fun else_ ->
      return
        ( [ Printf.sprintf "%sif %s then" pad cond ]
          @ then_
          @ (if else_ = [] then [] else (Printf.sprintf "%selse" pad) :: else_)
          @ [ Printf.sprintf "%sendif" pad ],
          2 )
  in
  let do_candidates = List.filter (fun v -> not (List.mem v busy)) [ "i"; "j"; "k" ] in
  let do_stmt =
    if depth = 0 || do_candidates = [] then store
    else
      oneofl do_candidates >>= fun v ->
      oneofl [ (1, 6, ""); (0, 5, ""); (1, 8, ", 2"); (6, 1, ", -1") ]
      >>= fun (lo, hi, step) ->
      (* occasionally a symbolic bound *)
      oneofl [ string_of_int hi; "n"; string_of_int hi ] >>= fun hi_s ->
      gen_stmts ~depth:(depth - 1) ~budget:(min budget 4) ~level:(level + 1)
        ~busy:(v :: busy)
      >>= fun body ->
      return
        ( [ Printf.sprintf "%sdo %s = %d, %s%s" pad v lo hi_s step ]
          @ body
          @ [ Printf.sprintf "%senddo" pad ],
          3 )
  in
  let while_stmt =
    if depth = 0 || List.mem "m" busy then assign
    else
      int_range 1 5 >>= fun count ->
      (* the body must not reassign the counter, or the loop may never
         terminate (m oscillating above zero forever) *)
      gen_stmts ~depth:(depth - 1) ~budget:(min budget 3) ~level:(level + 1)
        ~busy:("m" :: busy)
      >>= fun body ->
      return
        ( [
            Printf.sprintf "%sm = %d" pad count;
            Printf.sprintf "%swhile m > 0 do" pad;
          ]
          @ body
          @ [ Printf.sprintf "%s  m = m - 1" pad; Printf.sprintf "%sendwhile" pad ],
          3 )
  in
  frequency
    [ (4, assign); (4, store); (1, print_stmt); (2, if_stmt); (3, do_stmt); (1, while_stmt) ]

let gen_program : string G.t =
  let open G in
  int_range 0 12 >>= fun n0 ->
  gen_stmts ~depth:3 ~budget:8 ~level:1 ~busy:[] >>= fun body ->
  let decls =
    [
      "program fuzz";
      "  integer i, j, k, n, m";
      Printf.sprintf "  integer a%s, b%s, c%s"
        (let _, d, _ = List.nth arrays 0 in
         d)
        (let _, d, _ = List.nth arrays 1 in
         d)
        (let _, d, _ = List.nth arrays 2 in
         d);
      Printf.sprintf "  n = %d" n0;
      "  m = 1";
      "  i = 1";
      "  j = 2";
      "  k = 3";
    ]
  in
  let tail = [ "  print i + j + k + n + m"; "end" ] in
  return (String.concat "\n" (decls @ body @ tail))

(* --- the property ------------------------------------------------------ *)

let fuel = 400_000

let configs =
  List.concat_map
    (fun kind ->
      List.map (fun scheme -> Config.make ~scheme ~kind ()) Config.extended_schemes)
    [ Config.PRX; Config.INX ]
  @ [
      Config.make ~scheme:Config.NI ~impl:Universe.No_implications ();
      Config.make ~scheme:Config.SE ~impl:Universe.No_implications ();
      Config.make ~scheme:Config.LLS ~impl:Universe.Cross_family_only ();
      Config.make ~scheme:Config.LLS ~kind:Config.INX ~impl:Universe.Cross_family_only ();
    ]

let outcome_key (o : Run.outcome) =
  ( o.Run.trap <> None,
    o.Run.error <> None,
    if o.Run.trap = None && o.Run.error = None then o.Run.printed else [] )

(* When both runs trap, the optimized one may trap earlier, never
   later, so what it printed is a prefix of what the naive run
   printed. *)
let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> Nascent_interp.Value.equal x y && is_prefix xs ys
  | _ :: _, [] -> false

let check_trapped_prefix what config src (naive : Run.outcome) (o : Run.outcome) =
  if naive.Run.trap <> None && o.Run.trap <> None && not (is_prefix o.Run.printed naive.Run.printed)
  then
    QCheck.Test.fail_reportf "%s printed past the naive trap under %a:@.%s@.naive: %a@.optimized: %a"
      what Config.pp config src Run.pp_outcome naive Run.pp_outcome o

let check_program src =
  let ir =
    try Ir.Lower.of_source src
    with e ->
      QCheck.Test.fail_reportf "generated program rejected: %s@.%s" (Printexc.to_string e)
        src
  in
  let o1 = Run.run ~fuel ir in
  if o1.Run.fuel_exhausted then true (* pathological nesting: skip *)
  else begin
    List.iter
      (fun config ->
        let opt, _ = Core.Optimizer.optimize ~config ir in
        (* every config above verifies between passes (Config.make
           defaults verify:true); this checks the final output too *)
        (match Ir.Verify.program opt with
        | [] -> ()
        | vs ->
            QCheck.Test.fail_reportf "verifier rejects output under %a:@.%a@.%s"
              Config.pp config (Fmt.list Ir.Verify.pp_violation) vs src);
        let o2 = Run.run ~fuel opt in
        if o2.Run.fuel_exhausted then
          QCheck.Test.fail_reportf "optimized ran out of fuel under %a:@.%s" Config.pp
            config src;
        if outcome_key o1 <> outcome_key o2 then
          QCheck.Test.fail_reportf
            "behaviour change under %a:@.%s@.naive: %a@.optimized: %a" Config.pp config
            src Run.pp_outcome o1 Run.pp_outcome o2;
        check_trapped_prefix "optimized run" config src o1 o2;
        (* Dynamic check counts are monotone for NI/CS/MCM. The other
           placements are safe but not always profitable, so for them
           we only bound the damage: the paper's Figure 5 shows SE
           adding checks on one path, and LI/LLS hoist every check
           anticipatable at the loop body's entry (section 3.3), which
           a check after the loop can make it, so a hoisted check runs
           once per loop entry even on a path that skips its site in
           the loop (see [test_hoist_past_skipped_site]). *)
        let monotone =
          match config.Config.scheme with
          | Config.NI | Config.CS | Config.MCM -> true
          | Config.SE | Config.LNI | Config.ALL | Config.LI | Config.LLS -> false
        in
        if o1.Run.trap = None && o1.Run.error = None then begin
          if monotone && o2.Run.checks > o1.Run.checks then
            QCheck.Test.fail_reportf "%a increased dynamic checks %d -> %d:@.%s"
              Config.pp config o1.Run.checks o2.Run.checks src;
          if (not monotone) && o2.Run.checks > (2 * o1.Run.checks) + 16 then
            QCheck.Test.fail_reportf "%a exploded dynamic checks %d -> %d:@.%s" Config.pp
              config o1.Run.checks o2.Run.checks src
        end;
        (* idempotence in behaviour: optimizing again changes nothing
           observable and removes nothing unsoundly *)
        let opt2, _ = Core.Optimizer.optimize ~config opt in
        let o3 = Run.run ~fuel opt2 in
        if outcome_key o2 <> outcome_key o3 then
          QCheck.Test.fail_reportf "second optimization changed behaviour under %a:@.%s"
            Config.pp config src;
        check_trapped_prefix "twice-optimized run" config src o1 o3)
      configs;
    true
  end

let prop_soundness =
  QCheck.Test.make ~name:"random programs: every config sound" ~count:36
    (QCheck.make gen_program) check_program

(* A second tranche of the same property, sharded across a small domain
   pool: programs are pre-generated from a fixed seed (so the corpus is
   reproducible and independent of scheduling), then checked in
   parallel. [check_program]'s own config loop stays serial — the
   parallelism is across programs, exactly how test/bench fan work out
   in anger. A failure in any shard re-raises in the caller. *)
let test_sharded_soundness () =
  let rand = Random.State.make [| 0xd0a11 |] in
  let programs = List.init 24 (fun _ -> QCheck.Gen.generate1 ~rand gen_program) in
  let pool = Nascent_support.Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Nascent_support.Pool.shutdown pool) @@ fun () ->
  Nascent_support.Pool.parallel_iter pool
    (fun src -> ignore (check_program src))
    programs

(* The generator must produce a healthy mix of outcomes, or the
   soundness property would be vacuous (e.g. everything trapping on the
   first statement). *)
let test_generator_diversity () =
  let rand = Random.State.make [| 0x5eed |] in
  let clean = ref 0 and traps = ref 0 and with_checks = ref 0 and loops = ref 0 in
  for _ = 1 to 50 do
    let src = QCheck.Gen.generate1 ~rand gen_program in
    let ir = Ir.Lower.of_source src in
    let o = Run.run ~fuel ir in
    if o.Run.trap <> None then incr traps;
    if o.Run.trap = None && o.Run.error = None && not o.Run.fuel_exhausted then
      incr clean;
    if o.Run.checks > 0 then incr with_checks;
    let f = Ir.Program.main_func ir in
    if Nascent_analysis.Loops.compute f <> [] then incr loops
  done;
  Alcotest.(check bool) (Fmt.str "clean runs (%d)" !clean) true (!clean >= 10);
  Alcotest.(check bool) (Fmt.str "trapping runs (%d)" !traps) true (!traps >= 5);
  Alcotest.(check bool) (Fmt.str "programs with checks (%d)" !with_checks) true
    (!with_checks >= 45);
  Alcotest.(check bool) (Fmt.str "programs with loops (%d)" !loops) true (!loops >= 25)

(* Minimized from the program [gen_program] draws from
   [Random.State.make [| 86439 |]], on which the old monotone clause
   for LI/LLS failed: LLS/PRX/cross-family-only took its dynamic checks
   10 -> 11, and LI and LLS with all implications 10 -> 12. Of seeds
   1..100,000, 31 such failures came up, all under LI or LLS. The loop's
   a(n) is skipped on every trip, but the print after the loop makes
   its checks anticipatable at the body's entry, so LI and LLS hoist
   them to the preheader: they run there and again at the print, which
   the other arm of the outer if keeps from being redundant. The run
   is the naive run's in every other respect; MCM, which hoists only
   from blocks on every path through an iteration, and NI and CS add
   nothing. *)
let hoist_past_skipped_site =
  "program hoist\n\
   integer i, m, n, a(1:10)\n\
   n = 3\n\
   m = 5\n\
   if m > 1 then\n\
   do i = 1, 4\n\
   if m > 7 then\n\
   a(n) = 0\n\
   endif\n\
   enddo\n\
   endif\n\
   print a(n)\n\
   end"

let test_hoist_past_skipped_site () =
  let ir = Ir.Lower.of_source hoist_past_skipped_site in
  let naive = Run.run ir in
  Alcotest.(check int) "naive checks" 2 naive.Run.checks;
  List.iter
    (fun (config, checks) ->
      let o = Run.run (fst (Core.Optimizer.optimize ~config ir)) in
      let name = Fmt.str "%a" Config.pp config in
      Alcotest.(check bool) (name ^ ": same outcome") true (outcome_key naive = outcome_key o);
      Alcotest.(check int) (name ^ ": dynamic checks") checks o.Run.checks)
    [
      (Config.make ~scheme:Config.LLS (), 4);
      (Config.make ~scheme:Config.LLS ~impl:Universe.Cross_family_only (), 4);
      (Config.make ~scheme:Config.LI (), 4);
      (Config.make ~scheme:Config.MCM (), 2);
      (Config.make ~scheme:Config.NI (), 2);
      (Config.make ~scheme:Config.CS (), 2);
    ]

(* Minimized from a program on which [prop_soundness] failed with
   "behaviour change under LI/PRX/all-impl". The inner do loop never
   runs, so its b(i - 1) checks, hoisted to its preheader as cond
   checks, perform nothing; a(i) is skipped too. While cond checks
   counted as performed in the preheader pass's anticipatability, they
   made a(i)'s lower-bound check anticipatable at the while body's
   entry, and LI, LLS and ALL hoisted it to the while preheader, where
   it trapped on i = 0 in a program that checks nothing. *)
let zero_trip_cond_check =
  "program p\n\
   integer i, k, m, n, a(1:10), b(0:19)\n\
   n = 42\n\
   i = 0\n\
   m = 2\n\
   while m > 0 do\n\
   if m > 5 then\n\
   a(i) = 1\n\
   else\n\
   do k = 6, n, -1\n\
   b(i - 1) = 0\n\
   enddo\n\
   endif\n\
   m = m - 1\n\
   endwhile\n\
   print i\n\
   end"

let test_zero_trip_cond_check () =
  let ir = Ir.Lower.of_source zero_trip_cond_check in
  let naive = Run.run ir in
  Alcotest.(check (option string)) "naive: no trap" None naive.Run.trap;
  List.iter
    (fun config ->
      let o = Run.run (fst (Core.Optimizer.optimize ~config ir)) in
      let name = Fmt.str "%a" Config.pp config in
      Alcotest.(check (option string)) (name ^ ": no trap") None o.Run.trap;
      Alcotest.(check bool) (name ^ ": same outcome") true (outcome_key naive = outcome_key o))
    configs

let suite =
  [
    QCheck_alcotest.to_alcotest prop_soundness;
    Util.tc "sharded soundness (2 domains)" test_sharded_soundness;
    Util.tc "generator diversity" test_generator_diversity;
    Util.tc "LI/LLS hoist past a skipped site" test_hoist_past_skipped_site;
    Util.tc "LI/LLS: a zero-trip cond check covers nothing" test_zero_trip_cond_check;
  ]
