(* Measuring the words a call allocates, for the allocation bounds of
   test_support.ml and alloc_bounds.ml. *)

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
