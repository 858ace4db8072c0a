(* The five-step range check optimizer (paper section 3):

   1. decide which checks imply which           — {!Nascent_checks.Universe}:
      one check table per function compile, grown as passes add checks,
      each pair decided once — a smaller constant within a family, and
      under [--oracle] what the Fourier–Motzkin oracle proves across
      families;
   2. compute safe insertion points             — {!Analyses.anticipatability};
   3. insert checks per the configured scheme   — {!Strengthen},
      {!Lazy_motion}, {!Preheader};
   4. compute availability, eliminate redundant — {!Eliminate};
   5. evaluate compile-time checks              — {!Eliminate.compile_time_checks}.

   The input program is not modified: optimization runs on a copy.

   Observability: every step is timed with a monotonic clock and
   recorded as a {!pass_stat}; with [Config.verify] set, a snapshot is
   taken before each step and {!Nascent_ir.Verify} checks the result
   against the step's differential rules. *)

module Ir = Nascent_ir
module Mclock = Nascent_support.Mclock
module Guard = Nascent_support.Guard
module Json = Nascent_support.Json

type pass_stat = {
  pass : string;
  pass_time_s : float;
  pass_checks_before : int;
  pass_checks_after : int;
}

(* Why a pass was rolled back, or (the last two, recorded by the
   compile service) why a response is degraded. *)
type cause =
  | Pass_exception
  | Verifier_rejected
  | Budget_exhausted
  | Breaker_open
  | Validation_refused

let cause_name = function
  | Pass_exception -> "exception"
  | Verifier_rejected -> "verifier"
  | Budget_exhausted -> "fuel"
  | Breaker_open -> "breaker"
  | Validation_refused -> "validation"

(* One rolled-back pass: the recovery path's audit record. *)
type incident = {
  inc_pass : string;
  inc_func : string;
  inc_cause : cause;
  inc_detail : string;
  inc_elapsed_s : float;
}

(* Per-pass fuel: the fixpoint engine charges one ambient tick per
   block visit, so this bounds iteration counts, not wall-clock. No
   benchmark compile reaches 13,000 ticks in all its passes together;
   a pass that burns through six figures of them is hung, not slow. *)
let pass_fuel_budget = 200_000

type stats = {
  config : Config.t;
  strengthened : int;
  pre_inserted : int;
  hoisted_invariant : int;
  hoisted_linear : int;
  guards_inserted : int;
  plain_inserted : int;
  redundant_deleted : int;
  compile_time_deleted : int;
  compile_time_traps : int;
  static_checks_before : int;
  static_checks_after : int;
  passes : pass_stat list; (* pipeline order *)
  incidents : incident list; (* rolled-back passes, pipeline order *)
  faults_injected : int; (* corruptions Mutate actually applied/triggered *)
  elapsed_s : float; (* monotonic optimization time, Table 2/3's Range column *)
  validation : Ir.Validate.t option;
      (* the translation-validation certificate; [None] unless the
         compile ran with [Config.oracle] *)
  work : Nascent_checks.Work.t; (* the proof engine's deterministic work counts *)
}

(* Stats carrying [c]'s counters and nothing else yet. *)
let stats_of config (c : Checkctx.counts) =
  {
    config;
    strengthened = c.strengthened;
    pre_inserted = c.pre_inserted;
    hoisted_invariant = c.hoisted_invariant;
    hoisted_linear = c.hoisted_linear;
    guards_inserted = c.guards_inserted;
    plain_inserted = c.plain_inserted;
    redundant_deleted = c.redundant_deleted;
    compile_time_deleted = c.compile_time_deleted;
    compile_time_traps = c.compile_time_traps;
    static_checks_before = 0;
    static_checks_after = 0;
    passes = [];
    incidents = [];
    faults_injected = 0;
    elapsed_s = 0.0;
    validation = None;
    work = Nascent_checks.Work.zero;
  }

(* [validated] folds the certificate to the wire-friendly triple:
   [None] = validation did not run, [Some ok] otherwise. *)
let validated (s : stats) : bool option =
  Option.map Ir.Validate.validated s.validation

(* Merge per-pass records by pass name, keeping [a]'s pipeline order
   and appending passes only [b] ran. *)
let merge_passes (a : pass_stat list) (b : pass_stat list) : pass_stat list =
  List.fold_left
    (fun acc p ->
      if List.exists (fun q -> q.pass = p.pass) acc then
        List.map
          (fun q ->
            if q.pass = p.pass then
              {
                q with
                pass_time_s = q.pass_time_s +. p.pass_time_s;
                pass_checks_before = q.pass_checks_before + p.pass_checks_before;
                pass_checks_after = q.pass_checks_after + p.pass_checks_after;
              }
            else q)
          acc
      else acc @ [ p ])
    a b

let add a b =
  {
    a with
    strengthened = a.strengthened + b.strengthened;
    pre_inserted = a.pre_inserted + b.pre_inserted;
    hoisted_invariant = a.hoisted_invariant + b.hoisted_invariant;
    hoisted_linear = a.hoisted_linear + b.hoisted_linear;
    guards_inserted = a.guards_inserted + b.guards_inserted;
    plain_inserted = a.plain_inserted + b.plain_inserted;
    redundant_deleted = a.redundant_deleted + b.redundant_deleted;
    compile_time_deleted = a.compile_time_deleted + b.compile_time_deleted;
    compile_time_traps = a.compile_time_traps + b.compile_time_traps;
    static_checks_before = a.static_checks_before + b.static_checks_before;
    static_checks_after = a.static_checks_after + b.static_checks_after;
    passes = merge_passes a.passes b.passes;
    incidents = a.incidents @ b.incidents;
    faults_injected = a.faults_injected + b.faults_injected;
    elapsed_s = a.elapsed_s +. b.elapsed_s;
    validation =
      (match (a.validation, b.validation) with
      | None, v | v, None -> v
      | Some va, Some vb -> Some (Ir.Validate.merge va vb));
    work = Nascent_checks.Work.add a.work b.work;
  }

(* Step 3, the one step a scheme chooses: its placement passes in
   pipeline order, each with its name and its verifier rules. *)
let placement :
    Config.scheme -> (string * Ir.Verify.pass * (Checkctx.t -> Checkctx.counts -> unit)) list =
  let strengthen = ("strengthen", Ir.Verify.Strengthen, Strengthen.run) in
  let hoist variant = ("hoist", Ir.Verify.Hoist, Preheader.run ~variant) in
  let pre_insert placement = ("pre-insert", Ir.Verify.Code_motion, Lazy_motion.run ~placement) in
  function
  | Config.NI -> []
  | Config.CS -> [ strengthen ]
  | Config.SE -> [ pre_insert Lazy_motion.Safe_earliest ]
  | Config.LNI -> [ pre_insert Lazy_motion.Latest_not_isolated ]
  | Config.LI -> [ hoist Preheader.Invariant_only ]
  | Config.LLS -> [ hoist Preheader.Loop_limit ]
  | Config.MCM -> [ hoist Preheader.Markstein ]
  | Config.ALL -> [ hoist Preheader.Loop_limit; pre_insert Lazy_motion.Safe_earliest ]

(* Optimize one function in place.

   Fail-safe contract: every pass runs against a snapshot of the
   function. If the pass raises, the post-pass verifier rejects its
   output, or the per-pass fuel budget runs out, the snapshot is
   restored in place ({!Ir.Transform.restore_func}), an {!incident} is
   recorded, and the pipeline continues with the remaining passes — in
   the limit (every pass rolled back) the output degrades to the
   always-safe NI configuration instead of the compile failing. *)
let optimize_func (config : Config.t) (f : Ir.Func.t) : stats =
  let t0 = Mclock.counter () in
  let w0 = Nascent_checks.Work.now () in
  let fault = config.Config.fault in
  (* Fault injection is only meaningful under the detection oracle. *)
  let verify = config.Config.verify || fault <> None in
  let _, checks_before = Ir.Func.static_counts f in
  (* The input is verified outside the guard: a broken lowered function
     has no earlier safe state to roll back to, so it still raises. *)
  if verify then Ir.Verify.func_exn ~pass:Ir.Verify.Lowered f;
  let passes = ref [] in
  let incidents = ref [] in
  let faults_injected = ref 0 in
  let total = Checkctx.counts () in
  (* Time [body] under a fuel budget, record its pass stats, and — when
     verifying — check the function against [vpass]'s differential
     rules relative to the snapshot. [vpass = None] marks steps that do
     not mutate the IR (context construction), which are timed and
     guarded but not re-verified. Any fault (exception, verifier
     rejection, fuel exhaustion) rolls the snapshot back and records an
     incident instead of propagating. [body] bumps fresh counts, which
     join the function's total only if the pass commits: a rolled-back
     pass counts nothing. *)
  let run_pass : type a.
      string -> ?vpass:Ir.Verify.pass -> (Checkctx.counts -> a) -> (a, unit) result =
   fun name ?vpass body ->
    let counts = Checkctx.counts () in
    let before = Ir.Transform.snapshot_func f in
    let _, cb = Ir.Func.static_counts f in
    let t = Mclock.counter () in
    let outcome =
      try
        let r =
          Guard.with_fuel
            (Guard.fuel ~what:(f.Ir.Func.fname ^ ":" ^ name) ~budget:pass_fuel_budget)
            (fun () ->
              let r = body counts in
              (* Deliberate corruption of this pass's output, if the
                 configured fault targets it. *)
              (match fault with
              | Some s when Ir.Mutate.target_pass s.Ir.Mutate.cls = name ->
                  if Ir.Mutate.hangs s.Ir.Mutate.cls then begin
                    incr faults_injected;
                    Guard.exhaust_ambient ()
                  end
                  else if Ir.Mutate.apply ~seed:s.Ir.Mutate.seed s.Ir.Mutate.cls f then
                    incr faults_injected
              | _ -> ());
              r)
        in
        (match vpass with
        | Some pass when verify -> Ir.Verify.func_exn ~pass ~before f
        | _ -> ());
        Ok r
      with
      | Ir.Verify.Invalid_ir msg -> Error (Verifier_rejected, msg)
      | Guard.Fuel_exhausted what ->
          Error (Budget_exhausted, "fuel budget exhausted: " ^ what)
      | Stack_overflow -> Error (Pass_exception, "stack overflow")
      | e -> Error (Pass_exception, Printexc.to_string e)
    in
    let dt = Mclock.elapsed_s t in
    match outcome with
    | Ok r ->
        Checkctx.add_counts ~into:total counts;
        let _, ca = Ir.Func.static_counts f in
        passes :=
          { pass = name; pass_time_s = dt; pass_checks_before = cb; pass_checks_after = ca }
          :: !passes;
        Ok r
    | Error (cause, detail) ->
        Ir.Transform.restore_func ~from_:before f;
        incidents :=
          {
            inc_pass = name;
            inc_func = f.Ir.Func.fname;
            inc_cause = cause;
            inc_detail = detail;
            inc_elapsed_s = dt;
          }
          :: !incidents;
        (* The rolled-back attempt still consumed time; account for it
           with an unchanged check count (the rollback's net effect). *)
        passes :=
          { pass = name; pass_time_s = dt; pass_checks_before = cb; pass_checks_after = cb }
          :: !passes;
        Error ()
  in
  (* INX: rewrite checks into induction-expression form first, so every
     later pass sees induction checks (section 2.3); the loops it found
     serve the context. A rolled-back rewrite leaves PRX-form checks —
     weaker, still sound. *)
  let loops =
    if config.Config.kind <> Config.INX then None
    else
      match
        run_pass "inx-rewrite" ~vpass:Ir.Verify.Rewrite (fun _ -> Induction_rewrite.run f)
      with
      | Ok s -> Some s.Induction_rewrite.loops
      | Error () -> None
  in
  (* Translation validation compares the final function against the
     state entering the optimization pipeline proper (the INX rewrite
     above is certified by its own differential rules); snapshot it
     only when the certificate was asked for. *)
  let reference =
    if config.Config.oracle then Some (Ir.Transform.copy_func f) else None
  in
  (* One pool of interned checks per function compile: its ids are the
     check table's, and every oracle query — availability widening,
     conjunctive elimination, oracle-elim and the certificate (most of
     their queries repeat) — shares its memo. It dies with this call,
     so concurrent compiles never share one. *)
  let pool = Nascent_checks.Intern.create () in
  (* The context — loop structure, check table — is built once
     and shared by every pass; [Checkctx.refresh] revalidates the loop
     structure after CFG-shaping passes instead of rebuilding (and
     re-canonicalizing) from scratch. Without a context no pass can
     run: a context fault degrades this function all the way to its
     naive-checked form (the NI floor). The match yields the ambient
     block-entry facts a committed oracle-elim solved: the
     certificate's hint. *)
  let hint =
    match
      run_pass "context" (fun _ ->
          Checkctx.create ~mode:config.Config.impl ~oracle:config.Config.oracle ~pool ?loops f)
    with
    | Error () -> None
    | Ok ctx ->
        List.iter
          (fun (name, vpass, run) ->
            ignore
              (run_pass name ~vpass (fun c ->
                   Checkctx.refresh ctx;
                   run ctx c)))
          (placement config.Config.scheme
          @ [ ("eliminate", Ir.Verify.Elimination, Eliminate.redundancy_elimination) ]);
        (* The decision-procedure sweep is its own pass so a rollback
           (fuel, verifier) costs only the oracle's extra deletions, not
           the syntactic elimination above. *)
        let hint =
          if not config.Config.oracle then None
          else
            Result.to_option
              (run_pass "oracle-elim" ~vpass:Ir.Verify.Elimination
                 (Eliminate.oracle_elimination ~pool f))
        in
        ignore (run_pass "fold" ~vpass:Ir.Verify.Fold (Eliminate.compile_time_checks f));
        hint
  in
  let _, checks_after = Ir.Func.static_counts f in
  (* The certificate: prove every reference check site is still covered
     by the residual checks plus dominating guards. Runs outside the
     pass guard — it never mutates the IR and carries its own fuel
     budget — but is timed like a pass so the [--oracle] compile-time
     columns account for it. *)
  let validation =
    match reference with
    | None -> None
    | Some orig ->
        let t = Mclock.counter () in
        let v = Ir.Validate.func_guarded ~pool ?hint ~original:orig ~optimized:f () in
        let dt = Mclock.elapsed_s t in
        passes :=
          {
            pass = "validate";
            pass_time_s = dt;
            pass_checks_before = checks_after;
            pass_checks_after = checks_after;
          }
          :: !passes;
        Some v
  in
  (* The CFG view served the passes; a caller that keeps the optimized
     function (the experiment harness keeps dozens) should not also
     keep it. Whoever analyses the function again rebuilds one. *)
  f.Ir.Func.view <- None;
  {
    (stats_of config total) with
    static_checks_before = checks_before;
    static_checks_after = checks_after;
    passes = List.rev !passes;
    incidents = List.rev !incidents;
    faults_injected = !faults_injected;
    elapsed_s = Mclock.elapsed_s t0;
    validation;
    work = Nascent_checks.Work.since w0;
  }

(* Optimize a whole program, returning the optimized copy and the
   aggregated statistics. *)
let optimize ?(config = Config.default) (p : Ir.Program.t) : Ir.Program.t * stats =
  let q = Ir.Transform.copy_program p in
  let st = ref (stats_of config (Checkctx.counts ())) in
  List.iter (fun f -> st := add !st (optimize_func config f)) (Ir.Program.funcs_sorted q);
  (q, !st)

let pp_pass_stat ppf p =
  Fmt.pf ppf "%-12s checks %3d -> %3d  %8.3f ms" p.pass p.pass_checks_before
    p.pass_checks_after (1000.0 *. p.pass_time_s)

let pp_incident ppf (i : incident) =
  Fmt.pf ppf "%s: %-12s rolled back (%s): %s  %8.3f ms" i.inc_func i.inc_pass
    (cause_name i.inc_cause) i.inc_detail
    (1000.0 *. i.inc_elapsed_s)

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "@[<v>config: %a@,\
     static checks: %d -> %d@,\
     strengthened: %d, PRE-inserted: %d@,\
     hoisted: %d invariant + %d linear (%d cond + %d plain inserted)@,\
     deleted: %d redundant + %d compile-time (%d traps)@,\
     %a@,\
     %atime: %.4fs@]"
    Config.pp s.config s.static_checks_before s.static_checks_after s.strengthened
    s.pre_inserted s.hoisted_invariant s.hoisted_linear s.guards_inserted
    s.plain_inserted s.redundant_deleted s.compile_time_deleted s.compile_time_traps
    (Fmt.list pp_pass_stat) s.passes
    (fun ppf -> function
      | [] -> ()
      | is ->
          Fmt.pf ppf "incidents: %d (%d fault(s) injected)@,%a@,"
            (List.length is) s.faults_injected (Fmt.list pp_incident) is)
    s.incidents s.elapsed_s;
  match s.validation with
  | None -> ()
  | Some v -> Fmt.pf ppf "@,%a" Ir.Validate.pp v

let incident_to_json ?(brief = false) i =
  let cause = ("cause", Json.Str (cause_name i.inc_cause)) in
  let detail = ("detail", Json.Str i.inc_detail) in
  Json.Obj
    (("pass", Json.Str i.inc_pass)
    ::
    (if brief then [ cause; detail ]
     else
       [
         ("func", Json.Str i.inc_func);
         cause;
         detail;
         ("elapsed_s", Json.Float i.inc_elapsed_s);
       ]))

let stats_to_json (s : stats) : Json.t =
  let int_fields =
    [
      ("static_checks_before", s.static_checks_before);
      ("static_checks_after", s.static_checks_after);
      ("strengthened", s.strengthened);
      ("pre_inserted", s.pre_inserted);
      ("hoisted_invariant", s.hoisted_invariant);
      ("hoisted_linear", s.hoisted_linear);
      ("guards_inserted", s.guards_inserted);
      ("plain_inserted", s.plain_inserted);
      ("redundant_deleted", s.redundant_deleted);
      ("compile_time_deleted", s.compile_time_deleted);
      ("compile_time_traps", s.compile_time_traps);
    ]
  in
  let pass p =
    Json.Obj
      [
        ("pass", Json.Str p.pass);
        ("time_s", Json.Float p.pass_time_s);
        ("checks_before", Json.Int p.pass_checks_before);
        ("checks_after", Json.Int p.pass_checks_after);
      ]
  in
  let failure (f : Ir.Validate.site) =
    Json.Obj
      [
        ("func", Json.Str f.Ir.Validate.s_func);
        ("bid", Json.Int f.Ir.Validate.s_bid);
        ("check", Json.Str (Fmt.str "%a" Nascent_checks.Check.pp f.Ir.Validate.s_check));
        ("reason", Json.Str f.Ir.Validate.s_reason);
      ]
  in
  Json.Obj
    ([
       ("config", Config.to_json s.config);
     ]
    @ List.map (fun (k, n) -> (k, Json.Int n)) int_fields
    @ [
        ("elapsed_s", Json.Float s.elapsed_s);
        ("passes", Json.List (List.map pass s.passes));
        ("faults_injected", Json.Int s.faults_injected);
        ("incidents", Json.List (List.map incident_to_json s.incidents));
        ( "work",
          Json.Obj
            (List.map (fun (k, n) -> (k, Json.Int n)) (Nascent_checks.Work.fields s.work)) );
      ]
    @
    match s.validation with
    | None -> [ ("validated", Json.Null); ("validation", Json.Null) ]
    | Some v ->
        [
          ("validated", Json.Bool (Ir.Validate.validated v));
          ( "validation",
            Json.Obj
              [
                ("sites", Json.Int v.Ir.Validate.total_sites);
                ("proven", Json.Int v.Ir.Validate.proven_sites);
                ("fallbacks", Json.Int v.Ir.Validate.fallbacks);
                ("failures", Json.List (List.map failure v.Ir.Validate.failures));
              ] );
        ])
