(* The metric catalogue, read from BENCHMARK.json: the one place that
   names every metric, its unit, which direction is better and, for an
   end-to-end metric, the share by which it may worsen. The ledger
   prints exactly these names: a metric the code reports but the
   catalogue lacks, or an end-to-end metric the catalogue lists but a
   workload does not report, fails the run instead of drifting. *)

module Json = Nascent_support.Json

type metric = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float option; (* end-to-end only *)
}

type t = { end_to_end : metric list; per_layer : metric list }

let fail fmt = Printf.ksprintf failwith fmt

let metrics_of key j =
  match Json.member key j with
  | Some (Json.List l) ->
      List.map
        (fun m ->
          let str k = Json.str_member k m in
          match (str "name", str "unit", str "better") with
          | Some name, Some unit_, Some better ->
              {
                name;
                unit_;
                higher_better = better = "higher";
                bound = Json.float_member "bound" m;
              }
          | _ -> fail "BENCHMARK.json: malformed entry in %s" key)
        l
  | _ -> fail "BENCHMARK.json: no %s list" key

let load path =
  let raw =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "cannot read the metric catalogue: %s" e
  in
  match Json.parse raw with
  | Error e -> fail "%s: %s" path e
  | Ok j -> { end_to_end = metrics_of "end_to_end" j; per_layer = metrics_of "per_layer" j }

let find t name =
  List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
