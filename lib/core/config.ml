(* Optimizer configuration: the axes of the paper's experiments. *)

module Universe = Nascent_checks.Universe
module Json = Nascent_support.Json

(* The seven check placement schemes of Table 2 (section 3.3/4.2),
   plus MCM — the Markstein/Cocke/Markstein 1982 algorithm the paper's
   related-work section proposes comparing against: preheader insertion
   restricted to checks in articulation nodes of the loop body with
   simple (single-variable) range expressions. *)
type scheme =
  | NI (* redundancy elimination, no insertion *)
  | CS (* check strengthening *)
  | LNI (* latest-not-isolated PRE placement *)
  | SE (* safe-earliest PRE placement *)
  | LI (* preheader insertion of loop-invariant checks *)
  | LLS (* preheader insertion with loop-limit substitution *)
  | ALL (* LLS followed by SE *)
  | MCM (* Markstein et al.: articulation-node preheader insertion *)

(* PRX-checks are built from program expressions; INX-checks from the
   induction expressions of SSA-based induction variable analysis
   (section 2.3). *)
type check_kind = PRX | INX

type t = {
  scheme : scheme;
  kind : check_kind;
  impl : Universe.mode; (* Table 3's implication ablation axis *)
  verify : bool;
      (* run the IR invariant verifier between optimizer steps; on by
         default (and in tests), disabled by the benchmark harness so
         Table 2/3 compile-time columns measure only the passes *)
  fault : Nascent_ir.Mutate.spec option;
      (* deliberately corrupt one pass's output (--inject-fault): the
         fault-tolerance harness. Forces the verifier on. *)
  oracle : bool;
      (* consult the decision-procedure oracle (Nascent_checks.Oracle)
         during elimination: cross-family implications beyond the
         within-family rule, plus per-compile translation validation *)
}

let default =
  {
    scheme = LLS;
    kind = PRX;
    impl = Universe.All_implications;
    verify = true;
    fault = None;
    oracle = false;
  }

let make ?(scheme = LLS) ?(kind = PRX) ?(impl = Universe.All_implications)
    ?(verify = true) ?fault ?(oracle = false) () =
  { scheme; kind; impl; verify; fault; oracle }

let scheme_name = function
  | NI -> "NI"
  | CS -> "CS"
  | LNI -> "LNI"
  | SE -> "SE"
  | LI -> "LI"
  | LLS -> "LLS"
  | ALL -> "ALL"
  | MCM -> "MCM"

let scheme_of_name = function
  | "NI" | "ni" -> Some NI
  | "CS" | "cs" -> Some CS
  | "LNI" | "lni" -> Some LNI
  | "SE" | "se" -> Some SE
  | "LI" | "li" -> Some LI
  | "LLS" | "lls" -> Some LLS
  | "ALL" | "all" -> Some ALL
  | "MCM" | "mcm" -> Some MCM
  | _ -> None

let kind_name = function PRX -> "PRX" | INX -> "INX"

let kind_of_name = function
  | "prx" | "PRX" -> Some PRX
  | "inx" | "INX" -> Some INX
  | _ -> None

(* The short spellings are what requests and the CLI have always
   sent; the long ones are [Universe.mode_name], the only spelling
   printed, so a reported configuration can be sent back as is. *)
let impl_of_name = function
  | "all" | "all-impl" -> Some Universe.All_implications
  | "none" | "no-impl" -> Some Universe.No_implications
  | "cross" | "cross-family-only" -> Some Universe.Cross_family_only
  | _ -> None

(* The paper's Table 2 rows. *)
let all_schemes = [ NI; CS; LNI; SE; LI; LLS; ALL ]

(* Everything the optimizer implements, including the MCM extension. *)
let extended_schemes = all_schemes @ [ MCM ]

let fault_name = function
  | None -> "none"
  | Some s -> Nascent_ir.Mutate.spec_name s

let pp ppf t =
  Fmt.pf ppf "%s/%s/%s%s%a" (scheme_name t.scheme) (kind_name t.kind)
    (Universe.mode_name t.impl)
    (if t.oracle then "+O" else "")
    (fun ppf -> function
      | None -> ()
      | Some s -> Fmt.pf ppf "+%s" (Nascent_ir.Mutate.spec_name s))
    t.fault

(* The wire form: one object, one spelling per axis. *)
let to_json t =
  Json.Obj
    [
      ("scheme", Json.Str (scheme_name t.scheme));
      ("kind", Json.Str (kind_name t.kind));
      ("impl", Json.Str (Universe.mode_name t.impl));
      ("verify", Json.Bool t.verify);
      ("fault", Json.Str (fault_name t.fault));
      ("oracle", Json.Bool t.oracle);
    ]

(* Read the axes out of a request object; a missing axis takes its
   default, an unknown name is refused. *)
let of_json j =
  let axis field what of_name default =
    match Json.str_member field j with
    | None -> Ok default
    | Some s -> (
        match of_name s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unknown %s %s" what s))
  in
  let fault =
    match Json.str_member "fault" j with
    | None | Some "none" -> Ok None
    | Some s -> (
        match Nascent_ir.Mutate.parse_request s with
        | Ok (Nascent_ir.Mutate.Single spec) -> Ok (Some spec)
        | Ok Nascent_ir.Mutate.Smoke -> Error "fault \"smoke\" is CLI-only"
        | Error e -> Error e)
  in
  let flag field default = Option.value ~default (Json.bool_member field j) in
  Result.bind (axis "scheme" "scheme" scheme_of_name default.scheme) @@ fun scheme ->
  Result.bind (axis "kind" "check kind" kind_of_name default.kind) @@ fun kind ->
  Result.bind (axis "impl" "implication mode" impl_of_name default.impl) @@ fun impl ->
  Result.map
    (fun fault ->
      {
        scheme;
        kind;
        impl;
        verify = flag "verify" default.verify;
        fault;
        oracle = flag "oracle" default.oracle;
      })
    fault

(* Stable serialization of EVERY axis for content-addressed caching.
   [verify] is included deliberately: the verifier changes no output,
   but a cached cell must record exactly the configuration that
   produced it, so verifier-on and verifier-off runs never share
   entries. [fault] likewise: a deliberately degraded compile must
   never serve a fault-free lookup. *)
let cache_key t =
  Printf.sprintf "%s/%s/%s/verify=%b/fault=%s/oracle=%b" (scheme_name t.scheme)
    (kind_name t.kind)
    (Universe.mode_name t.impl) t.verify (fault_name t.fault) t.oracle
