(* What one workload run reports: operations attempted and failed (a
   failure is an error response, an incident, a refused certificate, an
   output that differs from its reference, or a count that changed
   between rounds), and its metrics by name. *)

module Json = Nascent_support.Json

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list; (* the first few failures, for stderr *)
  mutable metrics : (string * float) list;
}

let create () = { attempted = 0; failed = 0; notes = []; metrics = [] }

let fail t why =
  t.failed <- t.failed + 1;
  if List.length t.notes < 8 then t.notes <- why :: t.notes

(* One operation, checked: [Error why] counts as a failure. *)
let check t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error why ->
      t.attempted <- t.attempted + 1;
      fail t why

let metric t name v = t.metrics <- (name, v) :: t.metrics
let correct t = t.failed = 0

let to_json t =
  Json.Obj
    [
      ("correct", Json.Bool (correct t));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("metrics", Json.Obj (List.rev_map (fun (k, v) -> (k, Json.Float v)) t.metrics));
      ("notes", Json.List (List.rev_map (fun s -> Json.Str s) t.notes));
    ]

let of_json j =
  let t = create () in
  (match (Json.int_member "attempted" j, Json.int_member "failed" j) with
  | Some a, Some f ->
      t.attempted <- a;
      t.failed <- f
  | _ -> failwith "worker result lacks attempted/failed");
  (match Json.member "metrics" j with
  | Some (Json.Obj kv) ->
      t.metrics <-
        List.rev_map
          (fun (k, v) ->
            (* a metric over no samples prints as null *)
            (k, Option.value ~default:nan (Json.to_float v)))
          kv
  | _ -> failwith "worker result lacks metrics");
  (match Json.member "notes" j with
  | Some (Json.List l) -> t.notes <- List.rev (List.filter_map Json.to_str l)
  | _ -> ());
  t
