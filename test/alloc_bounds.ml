(* The suite's allocation bounds, which a stray major slice can break:
   they run in a process of their own, with no memory-watchdog alarm
   (Guard installs one that runs at the end of every major cycle, and
   allocates) and no heap left behind by the suite's randomly seeded
   properties, both of which decide where a major cycle ends. *)

module Frame = Nascent_support.Frame
module Suite = Nascent_benchmarks.Suite
module Config = Nascent_core.Config
module Json = Nascent_support.Json

(* Words [f ()] allocates on this domain: minor plus major, less the
   promoted words, which both count. *)
let allocated_words f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let r = f () in
  let after = words () in
  (r, int_of_float (after -. before))

(* A string's heap words: its header plus its padded bytes. *)
let string_words s = 1 + ((String.length s + Sys.word_size / 8) / (Sys.word_size / 8))

let compile_request src =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str "cli");
         ("op", Json.Str "compile");
         ("source", Json.Str src);
         ("scheme", Json.Str "LLS");
         ("kind", Json.Str "PRX");
         ("verify", Json.Bool true);
         ("oracle", Json.Bool false);
         ("run", Json.Bool false);
         ("deadline_ms", Json.Int 30000);
       ])

(* Two pipelined frames arrive in one read: taking the first must not
   copy the second. *)
let test_frame_next_alloc_bound () =
  let d = Frame.decoder () in
  List.iter
    (fun (b : Suite.benchmark) ->
      let payload = compile_request b.Suite.source in
      let frame = Frame.encode ~id:7 payload in
      let feed2 () =
        Frame.feed d frame ~off:0 ~len:(String.length frame);
        Frame.feed d frame ~off:0 ~len:(String.length frame)
      in
      (* warm: the decoder has already held two frames this size *)
      feed2 ();
      ignore (Frame.next d);
      ignore (Frame.next d);
      feed2 ();
      for k = 1 to 2 do
        let next, words = allocated_words (fun () -> Frame.next d) in
        (match next with
        | Ok (Some f) ->
            Alcotest.(check string) (b.Suite.name ^ ": payload") payload f.Frame.payload
        | _ -> Alcotest.failf "%s: frame %d not decoded" b.Suite.name k);
        let bound = string_words payload + 64 in
        if words > bound then
          Alcotest.failf "%s: decoding frame %d of %d bytes allocated %d words, bound %d"
            b.Suite.name k (String.length frame) words bound
      done)
    Suite.all

(* The memo key of a compile cell digests the source where it lies:
   its cost does not grow with the source. *)
let test_memo_key_alloc_bound () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let config = Config.make () in
      let _, words =
        allocated_words (fun () ->
            Nascent_support.Memo.key [ b.Suite.source; Config.cache_key config; "norun" ])
      in
      if words > 64 then
        Alcotest.failf "%s: Memo.key allocated %d words, bound 64" b.Suite.name words)
    Suite.all

(* --- allocation bounds on the request path ------------------------------

   Words allocated are the same on every host, so these bounds hold
   wherever the suite runs: a codec that starts copying a request's
   source per byte, or twice, fails them. *)

let test_json_parse_alloc_bound () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let req = compile_request b.Suite.source in
      let parsed, words = allocated_words (fun () -> Json.parse req) in
      Alcotest.(check (option string))
        (b.Suite.name ^ ": source decoded") (Some b.Suite.source)
        (Option.bind (Result.to_option parsed) (Json.str_member "source"));
      let bound = string_words b.Suite.source + 256 in
      if words > bound then
        Alcotest.failf "%s: parsing a %d-byte request allocated %d words, bound %d"
          b.Suite.name (String.length req) words bound)
    Suite.all

(* A daemon decodes each request and parses it where it lies in the
   connection's buffer: the source is allocated once, as the decoded
   string in the tree, and never as a frame payload. *)
let test_request_decode_parse_alloc_bound () =
  let d = Frame.decoder () in
  List.iter
    (fun (b : Suite.benchmark) ->
      let frame = Frame.encode ~id:7 (compile_request b.Suite.source) in
      let feed () = Frame.feed d frame ~off:0 ~len:(String.length frame) in
      (* warm: the decoder has already held a frame this size *)
      feed ();
      ignore (Frame.next_view d);
      feed ();
      let parsed, words =
        allocated_words (fun () ->
            match Frame.next_view d with
            | Ok (Some v) -> Json.parse_sub v.Frame.src ~off:v.Frame.off ~len:v.Frame.len
            | _ -> Alcotest.failf "%s: frame not decoded" b.Suite.name)
      in
      Alcotest.(check (option string))
        (b.Suite.name ^ ": source decoded") (Some b.Suite.source)
        (Option.bind (Result.to_option parsed) (Json.str_member "source"));
      let bound = string_words b.Suite.source + 256 in
      if words > bound then
        Alcotest.failf "%s: decoding and parsing a %d-byte frame allocated %d words, bound %d"
          b.Suite.name (String.length frame) words bound)
    Suite.all

(* --- allocation budgets on the compile path -----------------------------

   A compile's garbage is paid by every domain of a daemon (each minor
   collection stops them all), so the words it allocates are budgeted
   like the codec's above. *)

(* The compile a daemon runs on a miss: frontend, lowering, and the
   optimizer with the verifier on, over the 160 plain suite cells
   (10 programs x 8 schemes x PRX/INX). *)
let test_compile_alloc_budget () =
  let cells =
    List.concat_map
      (fun (b : Suite.benchmark) ->
        List.concat_map
          (fun scheme ->
            List.map (fun kind -> (b, Config.make ~scheme ~kind ())) [ Config.PRX; Config.INX ])
          Config.[ NI; CS; LNI; SE; LI; LLS; ALL; MCM ])
      Suite.all
  in
  let compile ((b : Suite.benchmark), config) =
    let _, env = Nascent_frontend.Frontend.analyze_exn b.Suite.source in
    ignore (Nascent_core.Optimizer.optimize ~config (Nascent_ir.Lower.lower_program env))
  in
  compile (List.hd cells);
  let (), words = allocated_words (fun () -> List.iter compile cells) in
  let mean = words / List.length cells in
  let budget = 146_200 in
  if mean > budget then
    Alcotest.failf "a plain suite compile allocates %d words on average, budget %d" mean
      budget

(* The compile response is printed once, into its frame. *)
let test_compile_response_alloc_bound () =
  let svc = Nascent_harness.Service.create () in
  let h = Nascent_harness.Service.handler svc in
  List.iter
    (fun (b : Suite.benchmark) ->
      let req =
        match Json.parse (compile_request b.Suite.source) with
        | Ok r -> r
        | Error e -> Alcotest.failf "request: %s" e
      in
      let resp = h.Nascent_support.Server.handle req in
      let frame, words = allocated_words (fun () -> Frame.encode_json ~id:7 resp) in
      let bound = string_words frame + 64 in
      if words > bound then
        Alcotest.failf "%s: printing a %d-byte compile response allocated %d words, bound %d"
          b.Suite.name (String.length frame) words bound)
    Suite.all

(* --- allocation budget on the interpreter ---------------------------------

   A run compiles its program to closures, allocates its frames and
   arrays, and boxes every float a real closure returns; a closure that
   starts boxing per operation multiplies these words on any host. *)

(* The mean words one [Run.run] of a suite program's LLS code
   allocates, its compile to closures included: 90,203 when this budget
   was set (169,311 with the block dispatcher and closure-read array
   elements that preceded it), so the budget leaves about 11%. *)
let test_run_alloc_budget () =
  let progs =
    List.map
      (fun (b : Suite.benchmark) ->
        let _, env = Nascent_frontend.Frontend.analyze_exn b.Suite.source in
        let config = Config.make ~scheme:Config.LLS () in
        fst (Nascent_core.Optimizer.optimize ~config (Nascent_ir.Lower.lower_program env)))
      Suite.all
  in
  let run p = ignore (Nascent_interp.Run.run p) in
  run (List.hd progs);
  let (), words = allocated_words (fun () -> List.iter run progs) in
  let mean = words / List.length progs in
  let budget = 100_000 in
  if mean > budget then
    Alcotest.failf "an LLS suite run allocates %d words on average, budget %d" mean budget

(* Under the "support" group, with the suite's other allocation bounds. *)
let () =
  Alcotest.run "nascent-rco-alloc"
    [
      ( "support",
        [
          Alcotest.test_case "frame: next allocation bound" `Quick test_frame_next_alloc_bound;
          Alcotest.test_case "memo: key allocation bound" `Quick test_memo_key_alloc_bound;
          Alcotest.test_case "json: parse allocation bound" `Quick test_json_parse_alloc_bound;
          Alcotest.test_case "request: decode and parse allocation bound" `Quick
            test_request_decode_parse_alloc_bound;
          Alcotest.test_case "compile: allocation budget" `Quick test_compile_alloc_budget;
          Alcotest.test_case "service: compile response allocation" `Quick
            test_compile_response_alloc_bound;
        ] );
      ("interp", [ Alcotest.test_case "run allocation budget" `Quick test_run_alloc_budget ]);
    ]
