(* Allocation bounds that a stray major slice can break: run in a
   process of their own, with no memory-watchdog alarm (Guard installs
   one that runs at the end of every major cycle, and allocates) and
   no heap left behind by the suite's randomly seeded properties, both
   of which decide where a major cycle ends. *)

open Alloc_words
module Frame = Nascent_support.Frame
module Suite = Nascent_benchmarks.Suite
module Config = Nascent_core.Config

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

(* Under the "support" group, with the suite's other allocation bounds. *)
let () =
  Alcotest.run "nascent-rco-alloc"
    [
      ( "support",
        [
          Alcotest.test_case "frame: next allocation bound" `Quick test_frame_next_alloc_bound;
          Alcotest.test_case "memo: key allocation bound" `Quick test_memo_key_alloc_bound;
        ] );
    ]
