(* ledger compare BASE NEW: one row per (workload, metric) with a bound,
   marked improved, unchanged, worse or unresolved. Each file holds the
   result lines of one or more `ledger run`s (every line that is a
   result object counts as a run), so a side with several runs is
   compared by its median. A metric whose spread between the base runs
   (quartile distance over the median) exceeds its bound is unresolved,
   unless every new run is better than every base run. error_frac may
   not rise at all. Exit 1 when any row is worse. *)

module Json = Nascent_support.Json

(* The values of every metric key over the runs in a file, and each
   run's error fraction. *)
let load path =
  let lines =
    try In_channel.with_open_bin path In_channel.input_lines with Sys_error e -> failwith e
  in
  let tbl = Hashtbl.create 64 in
  let push k x = Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  let errors = ref [] in
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok j -> (
          match
            (Json.member "metrics" j, Json.int_member "attempted" j, Json.int_member "failed" j)
          with
          | Some (Json.Obj kv), Some a, Some f ->
              errors := (float_of_int f /. float_of_int (max 1 a)) :: !errors;
              List.iter
                (fun (k, v) ->
                  Option.iter (push k) (Option.bind (Json.member "value" v) Json.to_float))
                kv
          | _ -> ())
      | Error _ -> ())
    lines;
  if !errors = [] then failwith (path ^ ": no ledger result lines");
  (tbl, !errors)

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let classify ~bound ~higher_better base news =
  let worse x y = if higher_better then x < y else x > y in
  let b = Stat.median base and n = Stat.median news in
  let q1, _, q3 = Stat.quartiles base in
  let spread = if b = 0.0 then 0.0 else (q3 -. q1) /. Float.abs b in
  let change = if b = 0.0 then if n = b then 0.0 else infinity else (n -. b) /. Float.abs b in
  let worse_by = if higher_better then -.change else change in
  let all_better = List.for_all (fun x -> List.for_all (fun y -> worse y x) base) news in
  let v =
    if spread > bound then if all_better then Improved else Unresolved
    else if worse_by > bound then Worse
    else if worse_by < -.bound then Improved
    else Unchanged
  in
  (b, n, change, v)

let run ~catalogue base_path new_path =
  let cat = Catalogue.load catalogue in
  let base, base_err = load base_path and news, new_err = load new_path in
  let rows =
    Hashtbl.fold (fun k _ acc -> k :: acc) base []
    |> List.sort compare
    |> List.filter_map (fun key ->
           (* keys are "metric" or "workload/metric" *)
           let name =
             match String.rindex_opt key '/' with
             | Some i -> String.sub key (i + 1) (String.length key - i - 1)
             | None -> key
           in
           match (Catalogue.find cat name, Hashtbl.find_opt news key) with
           | Some { Catalogue.bound = Some bound; higher_better; _ }, Some nv ->
               let b, n, change, v = classify ~bound ~higher_better (Hashtbl.find base key) nv in
               Some (key, b, n, change, v)
           | _ -> None)
  in
  let b = Stat.median base_err and n = Stat.median new_err in
  let errors = if n > b then Worse else if n < b then Improved else Unchanged in
  let rows = rows @ [ ("error_frac", b, n, n -. b, errors) ] in
  Printf.printf "%-36s %12s %12s %9s\n" "metric" "base" "new" "change";
  List.iter
    (fun (key, b, n, change, v) ->
      Printf.printf "%-36s %12.6g %12.6g %+8.2f%%  %s\n" key b n (100.0 *. change)
        (verdict_name v))
    rows;
  if List.exists (fun (_, _, _, _, v) -> v = Worse) rows then 1 else 0
