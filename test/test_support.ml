(* Unit and property tests for the support library (Bitset, Vec, and
   the compile-service building blocks: Json, Retry, Breaker, Guard
   deadlines). *)

open Util
module Bitset = Nascent_support.Bitset
module Vec = Nascent_support.Vec
module Json = Nascent_support.Json
module Retry = Nascent_support.Retry
module Breaker = Nascent_support.Breaker
module Guard = Nascent_support.Guard
module Frame = Nascent_support.Frame
module Suite = Nascent_benchmarks.Suite

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 99;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem b 64);
  Alcotest.(check bool) "mem 99" true (Bitset.mem b 99);
  Alcotest.(check bool) "not mem 50" false (Bitset.mem b 50);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "elements" [ 0; 64; 99 ] (Bitset.elements b)

let test_bitset_full () =
  let b = Bitset.full 70 in
  Alcotest.(check int) "cardinal" 70 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 69" true (Bitset.mem b 69);
  Bitset.clear b;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty b)

let test_bitset_fill_respects_universe () =
  let b = Bitset.create 65 in
  Bitset.fill b;
  Alcotest.(check int) "cardinal" 65 (Bitset.cardinal b);
  (* equality with a freshly built full set, exercising the last-word mask *)
  Alcotest.(check bool) "equal to full" true (Bitset.equal b (Bitset.full 65))

let test_bitset_set_ops () =
  let a = Bitset.of_list 32 [ 1; 5; 9 ] in
  let b = Bitset.of_list 32 [ 5; 9; 13 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~into:u b;
  Alcotest.(check (list int)) "union" [ 1; 5; 9; 13 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into ~into:i b;
  Alcotest.(check (list int)) "inter" [ 5; 9 ] (Bitset.elements i);
  let d = Bitset.copy a in
  Bitset.diff_into ~into:d b;
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements d);
  Alcotest.(check bool) "subset" true (Bitset.subset i a);
  Alcotest.(check bool) "not subset" false (Bitset.subset a i);
  Alcotest.(check bool) "disjoint" true (Bitset.disjoint d i);
  Alcotest.(check bool) "not disjoint" false (Bitset.disjoint a b)

let test_bitset_universe_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 20 in
  match Bitset.union_into ~into:a b with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected universe mismatch"

let test_bitset_out_of_range () =
  let a = Bitset.create 10 in
  (match Bitset.add a 10 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected range error");
  match Bitset.mem a (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected range error"

let test_bitset_zero_universe () =
  let b = Bitset.create 0 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.fill b;
  Alcotest.(check int) "still empty" 0 (Bitset.cardinal b)

(* properties *)

let elems_gen = QCheck.(small_list (int_bound 199))

let prop_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/elements roundtrip" elems_gen (fun xs ->
      let b = Bitset.of_list 200 xs in
      Bitset.elements b = List.sort_uniq compare xs)

let prop_union_cardinal =
  QCheck.Test.make ~name:"bitset |A∪B| + |A∩B| = |A| + |B|"
    QCheck.(pair elems_gen elems_gen)
    (fun (xs, ys) ->
      let a = Bitset.of_list 200 xs and b = Bitset.of_list 200 ys in
      let u = Bitset.copy a and i = Bitset.copy a in
      Bitset.union_into ~into:u b;
      Bitset.inter_into ~into:i b;
      Bitset.cardinal u + Bitset.cardinal i = Bitset.cardinal a + Bitset.cardinal b)

let prop_demorgan =
  QCheck.Test.make ~name:"bitset A \\ B = A ∩ ¬B via diff"
    QCheck.(pair elems_gen elems_gen)
    (fun (xs, ys) ->
      let a = Bitset.of_list 200 xs and b = Bitset.of_list 200 ys in
      let d = Bitset.copy a in
      Bitset.diff_into ~into:d b;
      List.for_all (fun x -> Bitset.mem a x && not (Bitset.mem b x)) (Bitset.elements d)
      && List.for_all
           (fun x -> (not (List.mem x ys)) || not (Bitset.mem d x))
           (List.sort_uniq compare xs))

let test_vec_basic () =
  let v = Vec.create ~dummy:0 in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    ignore (Vec.push v i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 42" 42 (Vec.get v 42);
  Vec.set v 42 1000;
  Alcotest.(check int) "set" 1000 (Vec.get v 42);
  Alcotest.(check int) "fold" (List.fold_left ( + ) 0 (Vec.to_list v))
    (Vec.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 1000) v)

let test_vec_bounds () =
  let v = Vec.create ~dummy:0 in
  ignore (Vec.push v 1);
  match Vec.get v 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected bounds error"

(* --- Json: the service wire format ------------------------------------- *)

let json = Alcotest.testable (fun ppf v -> Fmt.string ppf (Json.to_string v)) ( = )

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Int min_int;
      Json.Float 1.5;
      Json.Str "";
      Json.Str "hello \"world\"\n\t\\";
      Json.Str "unicode: \xc3\xa9\xe2\x82\xac";
      Json.Str (String.init 256 Char.chr) (* every byte value *);
      Json.List [];
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("op", Json.Str "compile");
          ("nested", Json.Obj [ ("deep", Json.List [ Json.Bool false ] ) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let printed = Json.to_string v in
      Alcotest.(check int) "length measures the printed text" (String.length printed)
        (Json.length v);
      Alcotest.check json "print/parse roundtrip" v (parse_ok printed))
    samples

let test_json_parse_forms () =
  Alcotest.check json "escapes" (Json.Str "a\nb\"c")
    (parse_ok {|"a\nb\"c"|});
  Alcotest.check json "unicode escape" (Json.Str "\xc3\xa9") (parse_ok {|"\u00e9"|});
  Alcotest.check json "surrogate pair" (Json.Str "\xf0\x9d\x84\x9e")
    (parse_ok {|"\ud834\udd1e"|});
  Alcotest.check json "whitespace tolerated" (Json.List [ Json.Int 1; Json.Int 2 ])
    (parse_ok " [ 1 ,\t2 ] ");
  Alcotest.check json "integral number is Int" (Json.Int 3) (parse_ok "3");
  (match parse_ok "3.25" with
  | Json.Float f -> Alcotest.(check (float 0.0)) "fractional is Float" 3.25 f
  | v -> Alcotest.failf "expected Float, got %s" (Json.to_string v));
  Alcotest.check json "scientific" (parse_ok "1.5e2") (parse_ok "150.0")

(* Each malformed input with the error [Json.parse] reports for it: the
   byte offset is part of the contract (a client is told where its
   request broke), so a rewrite of the parser must not move it. *)
let test_json_malformed () =
  List.iter
    (fun (s, want) ->
      match Json.parse s with
      | Ok v ->
          Alcotest.failf "expected parse error for %S, got %s" s (Json.to_string v)
      | Error e -> Alcotest.(check string) (Printf.sprintf "error for %S" s) want e)
    [
      ("", "JSON parse error at byte 0: unexpected end of input");
      ("{", "JSON parse error at byte 1: expected '\"'");
      ("[1,]", "JSON parse error at byte 3: unexpected character ']'");
      ("{\"a\":}", "JSON parse error at byte 5: unexpected character '}'");
      ("\"unterminated", "JSON parse error at byte 13: unterminated string");
      ("\"bad \\x escape\"", "JSON parse error at byte 7: bad escape");
      ("nul", "JSON parse error at byte 0: expected null");
      ("1 2" (* trailing garbage *), "JSON parse error at byte 2: trailing garbage after value");
      ( "\"raw\tcontrol\"" (* literal control byte in a string *),
        "JSON parse error at byte 4: raw control byte in string" );
      ("\"\\ud834\"" (* unpaired surrogate *), "JSON parse error at byte 7: expected '\\\\'");
      ("{\"a\" 1}", "JSON parse error at byte 5: expected ':'");
      ("--3", "JSON parse error at byte 1: malformed number");
      (* every other way a string can break *)
      ("\"\\ud834\\u0041\"", "JSON parse error at byte 13: unpaired surrogate");
      ("\"\\udd1e\"", "JSON parse error at byte 7: unpaired surrogate");
      ("\"\\u12\"", "JSON parse error at byte 6: bad hex digit in \\u escape");
      ("\"\\u12", "JSON parse error at byte 5: truncated \\u escape");
      ("\"\\", "JSON parse error at byte 2: truncated escape");
      ("\"x\001\"", "JSON parse error at byte 2: raw control byte in string");
      ("\"abc\\n", "JSON parse error at byte 6: unterminated string");
    ];
  (* the anti-DoS nesting bound *)
  let deep = String.concat "" (List.init 600 (fun _ -> "[")) in
  match Json.parse deep with
  | Ok _ -> Alcotest.fail "expected nesting-depth error"
  | Error e ->
      Alcotest.(check string) "nesting bound" "JSON parse error at byte 513: nesting too deep" e

(* Any byte string survives printing and parsing unchanged. The
   generator leans on the bytes the printer must escape (every control
   byte, '"', '\\') and on multi-byte UTF-8, which must pass through
   raw. *)
let prop_json_string_roundtrip =
  let piece =
    QCheck.Gen.(
      frequency
        [
          (4, map (String.make 1) char);
          (3, map (fun n -> String.make 1 (Char.chr n)) (int_bound 0x1f));
          (1, oneofl [ "\""; "\\"; "\\u0041"; "/" ]);
          (2, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e"; "\xef\xbf\xbf" ]);
          (4, string_size ~gen:printable (int_bound 12));
        ])
  in
  let gen = QCheck.Gen.(map (String.concat "") (list_size (int_bound 40) piece)) in
  QCheck.Test.make ~count:1000 ~name:"json string print/parse roundtrip"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s -> Json.parse (Json.to_string (Json.Str s)) = Ok (Json.Str s))

(* Encode one Unicode scalar value as UTF-8. *)
let utf8 u =
  let b = Buffer.create 4 in
  Buffer.add_utf_8_uchar b (Uchar.of_int u);
  Buffer.contents b

(* Text whose every character is written either raw (UTF-8) or as a
   \u escape — a surrogate pair above U+FFFF — parses to its UTF-8. *)
let prop_json_unicode_escapes =
  let scalar =
    QCheck.Gen.(
      frequency
        [
          (3, int_range 0x20 0x7e);
          (2, int_range 0x80 0x7ff);
          (2, int_range 0x800 0xd7ff);
          (1, int_range 0xe000 0xffff);
          (3, int_range 0x10000 0x10ffff);
        ])
  in
  let gen = QCheck.Gen.(list_size (int_bound 30) (pair scalar bool)) in
  let escape u =
    if u < 0x10000 then Printf.sprintf "\\u%04X" u
    else
      let v = u - 0x10000 in
      Printf.sprintf "\\u%04x\\u%04X" (0xD800 lor (v lsr 10)) (0xDC00 lor (v land 0x3ff))
  in
  QCheck.Test.make ~count:1000 ~name:"json \\u escapes and surrogate pairs decode"
    (QCheck.make gen)
    (fun chars ->
      let text =
        String.concat ""
          (List.map
             (fun (u, esc) ->
               if esc then escape u
               else if u = Char.code '"' || u = Char.code '\\' then escape u
               else utf8 u)
             chars)
      in
      let want = String.concat "" (List.map (fun (u, _) -> utf8 u) chars) in
      Json.parse ("\"" ^ text ^ "\"") = Ok (Json.Str want))

let test_json_accessors () =
  let v = parse_ok {|{"s":"x","i":7,"b":true,"f":2.5,"n":null}|} in
  Alcotest.(check (option string)) "str" (Some "x") (Json.str_member "s" v);
  Alcotest.(check (option int)) "int" (Some 7) (Json.int_member "i" v);
  Alcotest.(check (option bool)) "bool" (Some true) (Json.bool_member "b" v);
  Alcotest.(check (option (float 0.0))) "float" (Some 2.5) (Json.float_member "f" v);
  Alcotest.(check (option (float 0.0))) "float accepts int" (Some 7.0)
    (Json.float_member "i" v);
  Alcotest.(check (option int)) "missing member" None (Json.int_member "zz" v);
  Alcotest.(check (option int)) "shape mismatch" None (Json.int_member "s" v);
  Alcotest.(check (option int)) "non-object" None (Json.int_member "s" (Json.Int 3))

(* --- allocation bounds on the request path ------------------------------

   Words allocated are the same on every host, so these bounds hold
   wherever the suite runs: a codec that starts copying a request's
   source per byte, or twice, fails them. *)

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

(* --- Retry: deterministic backoff -------------------------------------- *)

let test_retry_delay_deterministic () =
  let p = Retry.default in
  for attempt = 1 to 6 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "delay(seed=5, attempt=%d) is stable" attempt)
      (Retry.delay_s p ~seed:5 ~attempt)
      (Retry.delay_s p ~seed:5 ~attempt)
  done;
  (* different seeds de-synchronize: not every attempt may differ, but
     the whole schedule must *)
  let schedule seed = List.init 5 (fun i -> Retry.delay_s p ~seed ~attempt:(i + 1)) in
  Alcotest.(check bool) "seeds differ" true (schedule 1 <> schedule 2);
  (* delays stay within the jittered exponential envelope *)
  List.iter
    (fun seed ->
      List.iteri
        (fun i d ->
          let base =
            Float.min p.Retry.max_delay_s
              (p.Retry.base_delay_s *. (p.Retry.multiplier ** float_of_int i))
          in
          if d < base *. (1.0 -. p.Retry.jitter) -. 1e-9
             || d > base *. (1.0 +. p.Retry.jitter) +. 1e-9
          then
            Alcotest.failf "delay %g outside envelope around %g (attempt %d)" d base
              (i + 1))
        (schedule seed))
    [ 1; 2; 3; 17; 255 ]

let test_retry_outcomes () =
  let sleeps = ref [] in
  let sleep s = sleeps := s :: !sleeps in
  let policy = { Retry.default with Retry.max_attempts = 4 } in
  (* succeeds on attempt 3: two backoffs *)
  (match
     Retry.run ~sleep ~policy ~seed:1 (fun ~attempt ->
         if attempt < 3 then Error (`Retryable "not yet") else Ok attempt)
   with
  | Retry.Ok_after (3, 3) -> ()
  | Retry.Ok_after (n, _) -> Alcotest.failf "succeeded on attempt %d, wanted 3" n
  | Retry.Gave_up _ -> Alcotest.fail "should have succeeded");
  Alcotest.(check int) "one sleep per retry" 2 (List.length !sleeps);
  (* a fatal error short-circuits *)
  (match
     Retry.run ~sleep:ignore ~policy ~seed:1 (fun ~attempt:_ ->
         (Error (`Fatal "broken") : (unit, _) result))
   with
  | Retry.Gave_up (1, "broken") -> ()
  | _ -> Alcotest.fail "fatal must give up on attempt 1");
  (* retryable exhaustion stops at max_attempts *)
  let tries = ref 0 in
  (match
     Retry.run ~sleep:ignore ~policy ~seed:1 (fun ~attempt:_ ->
         incr tries;
         (Error (`Retryable "still down") : (unit, _) result))
   with
  | Retry.Gave_up (4, "still down") -> ()
  | _ -> Alcotest.fail "expected exhaustion at max_attempts");
  Alcotest.(check int) "tried exactly max_attempts times" 4 !tries

(* --- Breaker: the graceful-degradation state machine ------------------- *)

let test_breaker_state_machine () =
  let b = Breaker.create ~threshold:3 ~cooldown_s:10.0 () in
  let decide now = Breaker.decide b ~now "CS" in
  let record now ok = Breaker.record b ~now "CS" ~ok in
  Alcotest.(check bool) "unknown key allowed" true (decide 0.0 = `Allow);
  record 1.0 false;
  record 2.0 false;
  Alcotest.(check bool) "below threshold still allowed" true (decide 2.5 = `Allow);
  (* a success resets the consecutive count *)
  record 3.0 true;
  record 4.0 false;
  record 5.0 false;
  Alcotest.(check bool) "reset by success: still closed" true (decide 5.5 = `Allow);
  record 6.0 false;
  Alcotest.(check bool) "third consecutive failure trips" true
    (Breaker.state b "CS" = Breaker.Open);
  Alcotest.(check int) "trip counted" 1 (Breaker.trips b);
  Alcotest.(check bool) "open: fallback" true (decide 7.0 = `Fallback);
  Alcotest.(check bool) "still within cooldown" true (decide 15.9 = `Fallback);
  (* cooldown over: exactly one probe *)
  Alcotest.(check bool) "probe after cooldown" true (decide 16.1 = `Probe);
  Alcotest.(check bool) "second caller falls back during probe" true
    (decide 16.2 = `Fallback);
  (* failed probe re-opens; the next probe needs a fresh cooldown *)
  record 16.3 false;
  Alcotest.(check bool) "failed probe re-opens" true (decide 16.4 = `Fallback);
  Alcotest.(check bool) "cooldown restarts" true (decide 20.0 = `Fallback);
  Alcotest.(check bool) "second probe" true (decide 26.4 = `Probe);
  record 26.5 true;
  Alcotest.(check bool) "successful probe closes" true (decide 26.6 = `Allow);
  Alcotest.(check bool) "closed state visible" true
    (Breaker.state b "CS" = Breaker.Closed);
  (* keys are independent *)
  Alcotest.(check bool) "other keys unaffected" true
    (Breaker.decide b ~now:26.7 "LLS" = `Allow);
  Alcotest.(check int) "snapshot lists both keys" 2
    (List.length (Breaker.snapshot b))

(* A probe whose outcome is never recorded (its worker crashed, its
   deadline fired before the caller could report) must not wedge the
   key in `Fallback forever: after another cooldown the probe
   re-arms. *)
let test_breaker_stalled_probe_rearms () =
  let b = Breaker.create ~threshold:1 ~cooldown_s:10.0 () in
  Breaker.record b ~now:0.0 "CS" ~ok:false;
  Alcotest.(check bool) "tripped" true (Breaker.state b "CS" = Breaker.Open);
  Alcotest.(check bool) "probe after cooldown" true
    (Breaker.decide b ~now:11.0 "CS" = `Probe);
  (* the probe is lost: nothing records its outcome *)
  Alcotest.(check bool) "fresh probe blocks other callers" true
    (Breaker.decide b ~now:12.0 "CS" = `Fallback);
  Alcotest.(check bool) "stalled probe re-arms after another cooldown" true
    (Breaker.decide b ~now:21.5 "CS" = `Probe);
  (* and the re-armed probe can still close the key *)
  Breaker.record b ~now:22.0 "CS" ~ok:true;
  Alcotest.(check bool) "recovered" true (Breaker.state b "CS" = Breaker.Closed)

(* --- Guard: wall-clock deadlines over ambient ticking ------------------- *)

let test_deadline_expiry () =
  let d = Guard.deadline ~what:"t" ~seconds:10.0 in
  Alcotest.(check bool) "fresh deadline not expired" false (Guard.expired d);
  Alcotest.(check bool) "remaining positive" true (Guard.remaining_s d > 0.0);
  let z = Guard.deadline ~what:"z" ~seconds:0.0 in
  Unix.sleepf 0.01;
  Alcotest.(check bool) "zero budget expires" true (Guard.expired z);
  Alcotest.(check (float 0.0)) "remaining clamped" 0.0 (Guard.remaining_s z)

let test_deadline_fires_on_ambient_tick () =
  let d = Guard.deadline ~what:"req" ~seconds:0.0 in
  Unix.sleepf 0.01;
  (match
     Guard.with_deadline d (fun () ->
         for _ = 1 to 100_000 do
           Guard.tick_ambient ()
         done)
   with
  | () -> Alcotest.fail "expected Deadline_exceeded from ambient ticking"
  | exception Guard.Deadline_exceeded what ->
      Alcotest.(check string) "names the deadline" "req" what);
  (* the deadline is popped on exit: ticking outside is free again *)
  Guard.tick_ambient ();
  (* check_deadlines bypasses the tick throttle *)
  match Guard.with_deadline d Guard.check_deadlines with
  | () -> Alcotest.fail "check_deadlines must raise on an expired deadline"
  | exception Guard.Deadline_exceeded _ -> ()

let test_deadline_generous_budget_no_fire () =
  let d = Guard.deadline ~what:"slow" ~seconds:60.0 in
  Guard.with_deadline d (fun () ->
      for _ = 1 to 10_000 do
        Guard.tick_ambient ()
      done);
  Alcotest.(check bool) "a minute was enough" false (Guard.expired d)

(* --- Retry: total-elapsed budget ---------------------------------------- *)

let test_retry_elapsed_budget () =
  (* fake time: the injected clock advances only when [sleep] is
     called, so the test is instant and fully deterministic *)
  let now = ref 0.0 in
  let clock () = !now in
  let sleep d = now := !now +. d in
  let policy =
    {
      Retry.max_attempts = 100;
      base_delay_s = 1.0;
      multiplier = 1.0;
      max_delay_s = 1.0;
      jitter = 0.0;
    }
  in
  (match
     Retry.run ~sleep ~clock ~policy ~max_elapsed_s:3.5 ~seed:1 (fun ~attempt:_ ->
         (Error (`Retryable "still down") : (unit, _) result))
   with
  | Retry.Gave_up (n, msg) ->
      (* 1s per backoff: attempts fire at t=0,1,2,3,4; the attempt at
         t=4 is the first to see the 3.5s budget spent — far short of
         the policy's 100 attempts *)
      Alcotest.(check int) "stopped by elapsed budget, not attempts" 5 n;
      let mentions_budget =
        let pat = "elapsed retry budget exhausted" in
        let n = String.length msg and m = String.length pat in
        let rec go i = i + m <= n && (String.sub msg i m = pat || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the exhausted budget" true mentions_budget
  | Retry.Ok_after _ -> Alcotest.fail "cannot succeed: every attempt fails");
  (* a success inside the window is unaffected by the budget *)
  now := 0.0;
  match
    Retry.run ~sleep ~clock ~policy ~max_elapsed_s:3.5 ~seed:1 (fun ~attempt ->
        if attempt < 3 then Error (`Retryable "not yet") else Ok attempt)
  with
  | Retry.Ok_after (3, 3) -> ()
  | Retry.Ok_after (n, _) -> Alcotest.failf "succeeded on attempt %d, wanted 3" n
  | Retry.Gave_up (_, msg) -> Alcotest.failf "gave up inside the window: %s" msg

(* --- Guard: memory watchdog --------------------------------------------- *)

let reset_mem_budget () = Guard.set_mem_budget ~bytes:None ()

let test_mem_watchdog_over () =
  Fun.protect ~finally:reset_mem_budget @@ fun () ->
  (* a 1-byte budget: any live heap is over it *)
  Guard.set_mem_budget ~bytes:(Some 1) ();
  Alcotest.(check bool) "budget installed" true (Guard.mem_budget () = Some 1);
  (match Guard.mem_level () with
  | `Over -> ()
  | `Pressure | `Ok -> Alcotest.fail "1-byte budget must report `Over");
  (match Guard.tick_ambient () with
  | () -> Alcotest.fail "ambient tick must raise over budget"
  | exception Guard.Mem_exceeded what ->
      Alcotest.(check bool) "message carries numbers" true
        (String.length what > 0));
  (* removing the budget silences the watchdog *)
  reset_mem_budget ();
  Guard.tick_ambient ();
  match Guard.mem_level () with
  | `Ok -> ()
  | `Pressure | `Over -> Alcotest.fail "no budget means `Ok"

let test_mem_watchdog_pressure_without_abort () =
  Fun.protect ~finally:reset_mem_budget @@ fun () ->
  (* budget just above the live heap, which is then past the fixed 80%
     shed threshold: admission-side pressure, but no request abort *)
  let heap = Guard.mem_heap_bytes () in
  Guard.set_mem_budget ~bytes:(Some (heap + (heap / 8))) ();
  (match Guard.mem_level () with
  | `Pressure -> ()
  | `Over -> Alcotest.fail "heap is under its own size plus an eighth"
  | `Ok -> Alcotest.fail "heap at 8/9 of the budget must report `Pressure");
  (* ticking does not raise: the heap is under the hard budget *)
  Guard.tick_ambient ()

let suite =
  [
    tc "bitset: basic" test_bitset_basic;
    tc "bitset: full" test_bitset_full;
    tc "bitset: fill respects universe" test_bitset_fill_respects_universe;
    tc "bitset: set ops" test_bitset_set_ops;
    tc "bitset: universe mismatch" test_bitset_universe_mismatch;
    tc "bitset: out of range" test_bitset_out_of_range;
    tc "bitset: zero universe" test_bitset_zero_universe;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_union_cardinal;
    QCheck_alcotest.to_alcotest prop_demorgan;
    tc "vec: basic" test_vec_basic;
    tc "vec: bounds" test_vec_bounds;
    tc "json: roundtrip" test_json_roundtrip;
    tc "json: parse forms" test_json_parse_forms;
    tc "json: malformed rejected" test_json_malformed;
    tc "json: accessors" test_json_accessors;
    tc "retry: deterministic jitter" test_retry_delay_deterministic;
    tc "retry: outcomes" test_retry_outcomes;
    tc "retry: elapsed budget" test_retry_elapsed_budget;
    tc "breaker: state machine" test_breaker_state_machine;
    tc "breaker: stalled probe re-arms" test_breaker_stalled_probe_rearms;
    tc "guard: deadline expiry" test_deadline_expiry;
    tc "guard: deadline fires on tick" test_deadline_fires_on_ambient_tick;
    tc "guard: generous deadline quiet" test_deadline_generous_budget_no_fire;
    tc "guard: mem watchdog aborts over budget" test_mem_watchdog_over;
    tc "guard: mem pressure without abort" test_mem_watchdog_pressure_without_abort;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_unicode_escapes;
    tc "json: parse allocation bound" test_json_parse_alloc_bound;
    tc "frame: next allocation bound" test_frame_next_alloc_bound;
  ]
