(* The fail-safe pipeline: fault injection, detection, rollback.

   The contract under test (DESIGN.md, "Failure domains and recovery
   contract"): every corruption class Nascent_ir.Mutate can inject is
   (1) detected — by the inter-pass verifier for structural faults, by
   the per-pass fuel budget for hangs; (2) rolled back — the function
   is restored to its pre-pass state byte-for-byte; and (3) recovered —
   compilation continues and the output still satisfies the interpreter
   differential against the naive-checked original. *)

open Util
module Ir = Nascent_ir
module Mutate = Ir.Mutate
module Core = Nascent_core
module Config = Core.Config
module Optimizer = Core.Optimizer
module Guard = Nascent_support.Guard
module Json = Nascent_support.Json
module Run = Nascent_interp.Run
module B = Nascent_benchmarks.Suite

(* A scheme whose pipeline runs the pass the class targets (mirrors the
   CLI's smoke matrix). *)
let scheme_for = function
  | Mutate.Drop_check | Mutate.Weaken_check -> Config.CS
  | Mutate.Unsafe_insert -> Config.SE
  | Mutate.Break_edge | Mutate.Hang_fixpoint -> Config.LLS
  | Mutate.Unsound_eliminate -> Config.NI

(* [Unsound_eliminate] is the class no differential rule can see; its
   cells compile with the oracle on so the translation validator — the
   only net that catches it — actually runs. *)
let fault_config ?(scheme = Config.LLS) cls seed =
  Config.make ~scheme
    ~fault:{ Mutate.cls; seed }
    ~oracle:(cls = Mutate.Unsound_eliminate) ()

(* --- rollback restores the pre-pass IR byte-for-byte ------------------- *)

(* Transform.restore_func is the rollback primitive: after arbitrary
   mutation of the function (here: a full optimizer run, the heaviest
   mutator in the tree), restoring from the snapshot must reproduce the
   original printing exactly. *)
let test_restore_func_byte_for_byte () =
  List.iter
    (fun (b : B.benchmark) ->
      let ir = ir_of_source b.B.source in
      Ir.Program.iter_funcs
        (fun f ->
          let s0 = Ir.Printer.func_to_string f in
          let before = Ir.Transform.copy_func f in
          ignore (Optimizer.optimize_func (Config.make ()) f);
          Ir.Transform.restore_func ~from_:before f;
          Alcotest.(check string)
            (b.B.name ^ "/" ^ f.Ir.Func.fname ^ ": restored byte-for-byte")
            s0
            (Ir.Printer.func_to_string f))
        ir)
    B.all

(* Same, but through each mutation class itself: corrupt, restore,
   compare. *)
let test_restore_after_each_mutation () =
  List.iter
    (fun cls ->
      List.iter
        (fun (b : B.benchmark) ->
          let ir = ir_of_source b.B.source in
          Ir.Program.iter_funcs
            (fun f ->
              let s0 = Ir.Printer.func_to_string f in
              let before = Ir.Transform.copy_func f in
              ignore (Mutate.apply ~seed:3 cls f : bool);
              Ir.Transform.restore_func ~from_:before f;
              Alcotest.(check string)
                (Fmt.str "%s/%s after %s" b.B.name f.Ir.Func.fname
                   (Mutate.cls_name cls))
                s0
                (Ir.Printer.func_to_string f))
            ir)
        B.all)
    [
      Mutate.Drop_check;
      Mutate.Weaken_check;
      Mutate.Break_edge;
      Mutate.Unsafe_insert;
      Mutate.Unsound_eliminate;
    ]

(* --- the per-class matrix: caught, rolled back, recovered -------------- *)

let expected_cause cls =
  if Mutate.hangs cls then Optimizer.Budget_exhausted else Optimizer.Verifier_rejected

let test_class_matrix () =
  List.iter
    (fun cls ->
      let scheme = scheme_for cls in
      let injected_somewhere = ref false in
      List.iter
        (fun (b : B.benchmark) ->
          let ir = ir_of_source b.B.source in
          let config = fault_config ~scheme cls 1 in
          let opt, stats = Optimizer.optimize ~config ir in
          let where = Fmt.str "%s under %a" b.B.name Config.pp config in
          if stats.Optimizer.faults_injected > 0 then begin
            injected_somewhere := true;
            (if cls = Mutate.Unsound_eliminate then begin
               (* invisible to every pass rule: nothing may roll back,
                  and the translation validator must refuse the
                  certificate *)
               Alcotest.(check int)
                 (where ^ ": unsound deletion draws no pass incident")
                 0
                 (List.length stats.Optimizer.incidents);
               Alcotest.(check (option bool))
                 (where ^ ": translation validator refuses the certificate")
                 (Some false) (Optimizer.validated stats)
             end
             else
               (* detected: the corruption drew at least one incident,
                  attributed to the targeted pass, with the right cause *)
               match stats.Optimizer.incidents with
               | [] -> Alcotest.failf "%s: injected fault drew no incident" where
               | is ->
                   Alcotest.(check bool)
                     (where ^ ": incident names the targeted pass")
                     true
                     (List.exists
                        (fun i ->
                          i.Optimizer.inc_pass = Mutate.target_pass cls
                          && i.Optimizer.inc_cause = expected_cause cls)
                        is));
            (* a rolled-back pass counts nothing *)
            let rolled_back pass =
              List.exists (fun i -> i.Optimizer.inc_pass = pass) stats.Optimizer.incidents
            in
            let oracle_elim_ran =
              List.exists (fun p -> p.Optimizer.pass = "oracle-elim") stats.Optimizer.passes
            in
            List.iter
              (fun (pass, counter, n, applies) ->
                if rolled_back pass && applies then
                  Alcotest.(check int) (Fmt.str "%s: rolled-back %s, %s" where pass counter) 0 n)
              [
                ("strengthen", "strengthened", stats.Optimizer.strengthened, true);
                ("pre-insert", "pre_inserted", stats.Optimizer.pre_inserted, true);
                ( "eliminate",
                  "redundant_deleted",
                  stats.Optimizer.redundant_deleted,
                  not oracle_elim_ran );
              ];
            (* recovered: the output is valid IR... *)
            (match Ir.Verify.program opt with
            | [] -> ()
            | vs ->
                Alcotest.failf "%s: recovered program invalid: %a" where
                  (Fmt.list Ir.Verify.pp_violation) vs);
            (* ...and behaviourally indistinguishable from naive *)
            let o0 = Run.run ir and o = Run.run opt in
            Alcotest.(check bool)
              (where ^ ": same printed output")
              true
              (o.Run.printed = o0.Run.printed);
            Alcotest.(check bool)
              (where ^ ": same trap behaviour")
              true
              ((o.Run.trap = None) = (o0.Run.trap = None))
          end
          else
            (* fault-free cells must be incident-free *)
            Alcotest.(check int) (where ^ ": no incident without a fault") 0
              (List.length stats.Optimizer.incidents))
        B.all;
      Alcotest.(check bool)
        (Mutate.cls_name cls ^ " applied to at least one benchmark (not vacuous)")
        true !injected_somewhere)
    Mutate.all_classes

(* --- hang: fuel watchdog, degradation stays safe ----------------------- *)

(* A hung eliminate under plain NI: the fuel budget cuts it off, the
   rollback leaves the naive checks in place, and the result still runs
   clean — the "degrade to the NI floor" end of the contract. *)
let test_hang_degrades_to_safe () =
  let b = List.hd B.all in
  let ir = ir_of_source b.B.source in
  let config = fault_config ~scheme:Config.NI Mutate.Hang_fixpoint 1 in
  let opt, stats = Optimizer.optimize ~config ir in
  Alcotest.(check bool) "hang triggered" true (stats.Optimizer.faults_injected > 0);
  Alcotest.(check bool) "fuel incident recorded" true
    (List.exists
       (fun i -> i.Optimizer.inc_cause = Optimizer.Budget_exhausted)
       stats.Optimizer.incidents);
  (* no elimination happened in the rolled-back pass *)
  Alcotest.(check int) "rolled-back eliminate deleted nothing" 0
    stats.Optimizer.redundant_deleted;
  let o = Run.run opt in
  check_no_trap o;
  (* every naive check survived the failed optimization *)
  let o0 = Run.run ir in
  Alcotest.(check int) "dynamic checks at the NI floor or above" o0.Run.checks
    (max o.Run.checks o0.Run.checks)

(* Guard fuel in isolation: deterministic exhaustion point. *)
let test_fuel_deterministic () =
  let burn budget =
    let fu = Guard.fuel ~what:"t" ~budget in
    let n = ref 0 in
    (try
       Guard.with_fuel fu (fun () ->
           while true do
             Guard.tick_ambient ();
             incr n
           done)
     with Guard.Fuel_exhausted _ -> ());
    !n
  in
  (* the budget-th tick raises, so budget - 1 iterations complete *)
  Alcotest.(check int) "exhausts exactly at budget" 99 (burn 100);
  Alcotest.(check int) "replays identically" (burn 50) (burn 50)

(* --- unsound elimination: only the validator can see it ---------------- *)

(* The class the whole translation-validation tentpole exists for: a
   deleted live check is legal under every differential rule (deletion
   is what redundancy elimination does) and invisible to a trap-free
   run, so across benchmarks, schemes and seeds the only acceptable
   outcome is: no incident, certificate refused. A seed that finds no
   applicable site is vacuous and proves nothing, so the test also
   demands the fault applied somewhere. *)
let test_validator_catches_unsound_eliminate () =
  let applied = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun scheme ->
          List.iter
            (fun (b : B.benchmark) ->
              let ir = ir_of_source b.B.source in
              let config = fault_config ~scheme Mutate.Unsound_eliminate seed in
              let opt, stats = Optimizer.optimize ~config ir in
              let where =
                Fmt.str "%s under %a seed %d" b.B.name Config.pp config seed
              in
              if stats.Optimizer.faults_injected > 0 then begin
                incr applied;
                Alcotest.(check int)
                  (where ^ ": no pass rule caught the deletion")
                  0
                  (List.length stats.Optimizer.incidents);
                Alcotest.(check (option bool))
                  (where ^ ": validator refuses the certificate")
                  (Some false) (Optimizer.validated stats);
                (* the corrupted program still runs clean — exactly why
                   behaviour differencing cannot replace the validator *)
                let o = Run.run opt in
                Alcotest.(check bool)
                  (where ^ ": corruption is behaviourally silent")
                  true
                  (o.Run.printed = (Run.run ir).Run.printed)
              end
              else
                Alcotest.(check (option bool))
                  (where ^ ": clean compile keeps its certificate")
                  (Some true) (Optimizer.validated stats))
            [ List.nth B.all 0; List.nth B.all 3; List.nth B.all 9 ])
        [ Config.NI; Config.LLS ])
    [ 1; 7; 42; 1999 ];
  Alcotest.(check bool) "fault applied at least once (not vacuous)" true (!applied > 0)

(* The class's own contract, asked of [Mutate] directly: on the
   functions NI and LLS leave, a deletion that applies removes exactly
   one plain check, and the certificate of the function before it
   against the function after it is refused. *)
let test_unsound_eliminate_contract () =
  let instrs (f : Ir.Func.t) =
    List.init (Ir.Func.num_blocks f) (fun b -> (Ir.Func.block f b).Ir.Types.instrs)
  in
  (* [after] is [before] less one plain check, the rest shared *)
  let one_check_gone before after =
    List.exists
      (fun j ->
        (match List.nth before j with Ir.Types.Check _ -> true | _ -> false)
        && List.equal ( == ) (List.filteri (fun k _ -> k <> j) before) after)
      (List.init (List.length before) Fun.id)
  in
  let applied = ref 0 in
  List.iter
    (fun (b : B.benchmark) ->
      List.iter
        (fun scheme ->
          let opt, _ =
            Optimizer.optimize ~config:(Config.make ~scheme ()) (ir_of_source b.B.source)
          in
          List.iter
            (fun seed ->
              Ir.Program.iter_funcs
                (fun f ->
                  let where =
                    Fmt.str "%s.%s %s seed %d" b.B.name f.Ir.Func.fname
                      (Config.scheme_name scheme) seed
                  in
                  let f = Ir.Transform.copy_func f in
                  let original = Ir.Transform.copy_func f in
                  if Mutate.apply ~seed Mutate.Unsound_eliminate f then begin
                    incr applied;
                    let changed =
                      List.filter (fun (a, b) -> a != b) (List.combine (instrs original) (instrs f))
                    in
                    Alcotest.(check bool)
                      (where ^ ": exactly one plain check gone")
                      true
                      (match changed with [ (a, b) ] -> one_check_gone a b | _ -> false);
                    Alcotest.(check bool)
                      (where ^ ": the certificate refuses the deletion")
                      false
                      (Ir.Validate.validated
                         (Ir.Validate.func_guarded ~pool:(Nascent_checks.Intern.create ())
                            ~original ~optimized:f ()))
                  end)
                opt)
            [ 1; 2; 3 ])
        [ Config.NI; Config.LLS ])
    B.all;
  Alcotest.(check bool) "the deletion applied somewhere (not vacuous)" true (!applied > 0)

(* --- incident accounting ----------------------------------------------- *)

let test_stats_json_reports_incidents () =
  let b = List.hd B.all in
  let ir = ir_of_source b.B.source in
  let _, stats =
    Optimizer.optimize ~config:(fault_config ~scheme:Config.CS Mutate.Drop_check 1) ir
  in
  Alcotest.(check bool) "fault applied" true (stats.Optimizer.faults_injected > 0);
  let json =
    match Json.parse (Json.to_string (Optimizer.stats_to_json stats)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "stats json does not parse: %s" e
  in
  let incidents =
    match Json.member "incidents" json with Some (Json.List l) -> Some l | _ -> None
  in
  Alcotest.(check bool) "json has incidents array" true (incidents <> None);
  Alcotest.(check bool) "json records the cause" true
    (List.exists
       (fun i -> Json.str_member "cause" i = Some "verifier")
       (Option.value ~default:[] incidents));
  Alcotest.(check (option string)) "json records the fault axis" (Some "drop-check:1")
    (Option.bind (Json.member "config" json) (Json.str_member "fault"));
  Alcotest.(check (option int)) "json counts injections"
    (Some stats.Optimizer.faults_injected)
    (Json.int_member "faults_injected" json);
  (* With the oracle on, the certificate's counts round-trip too,
     including the functions whose certificate fell back to the search.
     Random program 10's ALL+O certificate is refused (see
     oracle_cells.expected), and a refused certificate has always
     fallen back, so the count is not zero. *)
  let src = QCheck.Gen.generate1 ~rand:(Random.State.make [| 10 |]) Test_random.gen_program in
  let _, stats =
    Optimizer.optimize ~config:(Config.make ~scheme:Config.ALL ~oracle:true ()) (ir_of_source src)
  in
  let v = Option.get stats.Optimizer.validation in
  Alcotest.(check bool) "a certificate fell back" true (v.Nascent_ir.Validate.fallbacks > 0);
  let validation =
    match Json.parse (Json.to_string (Optimizer.stats_to_json stats)) with
    | Ok j -> Json.member "validation" j
    | Error e -> Alcotest.failf "stats json does not parse: %s" e
  in
  List.iter
    (fun (field, n) ->
      Alcotest.(check (option int)) ("json validation " ^ field) (Some n)
        (Option.bind validation (Json.int_member field)))
    [
      ("sites", v.Nascent_ir.Validate.total_sites);
      ("proven", v.Nascent_ir.Validate.proven_sites);
      ("fallbacks", v.Nascent_ir.Validate.fallbacks);
    ]

(* --- qcheck: random seeded faults never escape -------------------------- *)

(* For any (benchmark, class, seed, scheme): if the fault applied, it
   must draw an incident; applied or not, the output must be valid IR
   and print what the naive program prints. *)
let prop_faults_never_escape =
  QCheck.Test.make ~name:"random seeded faults never escape" ~count:60
    (QCheck.make
       ~print:(fun (bi, ci, seed, si) ->
         let cls = List.nth Mutate.all_classes ci in
         let scheme =
           if cls = Mutate.Unsound_eliminate then
             List.nth [ Config.NI; Config.LLS ] (si mod 2)
           else List.nth Config.extended_schemes si
         in
         Fmt.str "%s %s seed=%d %s"
           (List.nth B.all bi).B.name (Mutate.cls_name cls) seed
           (Config.scheme_name scheme))
       QCheck.Gen.(
         quad
           (int_bound (List.length B.all - 1))
           (int_bound (List.length Mutate.all_classes - 1))
           (int_bound 9999)
           (int_bound (List.length Config.extended_schemes - 1))))
    (fun (bi, ci, seed, si) ->
      let b = List.nth B.all bi in
      let cls = List.nth Mutate.all_classes ci in
      let scheme =
        (* unsound-eliminate's guarantee only holds for schemes whose
           residual in-place checks are reference checks (the CLI's
           fault matrix restricts it the same way) *)
        if cls = Mutate.Unsound_eliminate then
          List.nth [ Config.NI; Config.LLS ] (si mod 2)
        else List.nth Config.extended_schemes si
      in
      let ir = ir_of_source b.B.source in
      let opt, stats = Optimizer.optimize ~config:(fault_config ~scheme cls seed) ir in
      let detected =
        stats.Optimizer.faults_injected = 0
        || stats.Optimizer.incidents <> []
        || Optimizer.validated stats = Some false
      in
      detected
      && Ir.Verify.program opt = []
      && (Run.run opt).Run.printed = (Run.run ir).Run.printed)

let suite =
  [
    tc "restore_func round-trips the optimizer" test_restore_func_byte_for_byte;
    tc "restore_func round-trips each mutation" test_restore_after_each_mutation;
    tc "every fault class caught and recovered" test_class_matrix;
    tc "hang degrades to the safe NI floor" test_hang_degrades_to_safe;
    tc "validator catches unsound elimination" test_validator_catches_unsound_eliminate;
    tc "unsound-eliminate deletes one plain check the certificate refuses"
      test_unsound_eliminate_contract;
    tc "fuel exhaustion is deterministic" test_fuel_deterministic;
    tc "stats json reports incidents" test_stats_json_reports_incidents;
    QCheck_alcotest.to_alcotest prop_faults_never_escape;
  ]
