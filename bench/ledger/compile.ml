(* One compile from source, split into its layers: Frontend.analyze_exn,
   Lower.lower_program and Optimizer.optimize, whose stats.passes give
   the per-pass split. The verifier is on, as nascentc and the daemon
   default. In traced runs each layer is a span; the pass spans are laid
   end to end inside the optimize span, since stats.passes sums each
   pass over the program's functions and carries no start times. *)

module B = Nascent_benchmarks.Suite
module Config = Nascent_core.Config
module Optimizer = Nascent_core.Optimizer
module Ir = Nascent_ir
module Mclock = Nascent_support.Mclock

type cell = {
  prog : B.benchmark;
  scheme : Config.scheme;
  kind : Config.check_kind;
  oracle : bool;
}

let schemes = Config.[ NI; CS; LNI; SE; LI; LLS; ALL; MCM ]
let kinds = Config.[ PRX; INX ]
let config ?(verify = true) c =
  Config.make ~scheme:c.scheme ~kind:c.kind ~oracle:c.oracle ~verify ()

let label c =
  Printf.sprintf "%s/%s/%s%s" c.prog.B.name (Config.scheme_name c.scheme)
    (Config.kind_name c.kind) (if c.oracle then "+O" else "")

(* The optimizer passes a compile may report, in pipeline order. *)
let pass_names =
  [ "inx-rewrite"; "context"; "strengthen"; "hoist"; "pre-insert"; "eliminate";
    "oracle-elim"; "fold"; "validate" ]

type layers = {
  total_s : float;
  cpu_s : float; (* CPU time of the whole compile *)
  analyze_s : float;
  lower_s : float;
  optimize_s : float;
  passes : (string * float) list; (* seconds, as stats.passes reports them *)
  alloc_words : float; (* minor-heap words allocated by the compile *)
  ir : Ir.Program.t;
  opt : Ir.Program.t;
  stats : Optimizer.stats;
}

let sec a b = Int64.to_float (Int64.sub b a) /. 1e9

let run ?(verify = true) ~src c =
  let w0 = Gc.minor_words () in
  let c0 = Cpu.self () in
  let t0 = Mclock.counter () in
  let _, env = Nascent_frontend.Frontend.analyze_exn src in
  let t1 = Mclock.counter () in
  let ir = Ir.Lower.lower_program env in
  let t2 = Mclock.counter () in
  let opt, stats = Optimizer.optimize ~config:(config ~verify c) ir in
  let t3 = Mclock.counter () in
  let cpu_s = Cpu.self () -. c0 in
  let alloc_words = Gc.minor_words () -. w0 in
  let passes =
    List.map (fun p -> (p.Optimizer.pass, p.Optimizer.pass_time_s)) stats.Optimizer.passes
  in
  if !Spans.enabled then begin
    let args = [ ("cell", Nascent_support.Json.Str (label c)) ] in
    Spans.complete ~args ~cat:"compile" ~name:"compile" ~start:t0 ~dur:(Int64.sub t3 t0) ();
    Spans.complete ~cat:"frontend" ~name:"frontend.analyze" ~start:t0 ~dur:(Int64.sub t1 t0) ();
    Spans.complete ~cat:"ir" ~name:"ir.lower" ~start:t1 ~dur:(Int64.sub t2 t1) ();
    Spans.complete ~cat:"core" ~name:"core.optimize" ~start:t2 ~dur:(Int64.sub t3 t2) ();
    ignore
      (List.fold_left
         (fun at (name, s) ->
           let dur = Int64.of_float (s *. 1e9) in
           Spans.complete ~cat:"core" ~name:("core.pass." ^ name) ~start:at ~dur ();
           Int64.add at dur)
         t2 passes)
  end;
  {
    total_s = sec t0 t3;
    cpu_s;
    analyze_s = sec t0 t1;
    lower_s = sec t1 t2;
    optimize_s = sec t2 t3;
    passes;
    alloc_words;
    ir;
    opt;
    stats;
  }

let pass_s l name = Option.value ~default:0.0 (List.assoc_opt name l.passes)

(* The determinism and safety checks every compile must pass: no
   rolled-back pass, and a validation certificate when one was asked
   for. *)
let verdict c l =
  match l.stats.Optimizer.incidents with
  | i :: _ ->
      Error
        (Printf.sprintf "%s: pass %s rolled back (%s)" (label c) i.Optimizer.inc_pass
           i.Optimizer.inc_detail)
  | [] ->
      if c.oracle && Optimizer.validated l.stats <> Some true then
        Error (label c ^ ": translation validation did not certify the compile")
      else Ok ()

let static_checks l =
  (l.stats.Optimizer.static_checks_before, l.stats.Optimizer.static_checks_after)
