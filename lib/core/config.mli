(** Optimizer configuration: the axes of the paper's experiments. *)

module Universe = Nascent_checks.Universe

(** The seven check placement schemes of Table 2 (sections 3.3/4.2),
    plus {!MCM} — the Markstein/Cocke/Markstein 1982 algorithm the
    paper's related-work section proposes comparing against. *)
type scheme =
  | NI  (** redundancy elimination, no insertion *)
  | CS  (** check strengthening (Gupta) *)
  | LNI  (** latest-not-isolated PRE placement *)
  | SE  (** safe-earliest PRE placement *)
  | LI  (** preheader insertion of loop-invariant checks *)
  | LLS  (** preheader insertion with loop-limit substitution *)
  | ALL  (** LLS followed by SE *)
  | MCM  (** articulation-node preheader insertion, simple checks only *)

(** PRX-checks are built from program expressions; INX-checks from the
    induction expressions of SSA-based induction variable analysis
    (section 2.3). *)
type check_kind = PRX | INX

type t = {
  scheme : scheme;
  kind : check_kind;
  impl : Universe.mode;  (** Table 3's implication ablation axis *)
  verify : bool;
      (** run the IR invariant verifier ({!Nascent_ir.Verify}) between
          optimizer steps; on by default, disabled by the benchmark
          harness for timing runs *)
  fault : Nascent_ir.Mutate.spec option;
      (** deliberately corrupt one pass's output ([--inject-fault]) to
          exercise the detect-and-rollback path; forces verification
          on. [None] in every normal compile. *)
  oracle : bool;
      (** consult the decision-procedure oracle
          ({!Nascent_checks.Oracle}) during elimination — cross-family
          implications beyond the within-family rule — and run
          per-compile translation validation ({!Nascent_ir.Validate})
          after optimization. Off by default. *)
}

val default : t
(** LLS / PRX / all implications / verify / no fault — the paper's
    winner. *)

val make :
  ?scheme:scheme ->
  ?kind:check_kind ->
  ?impl:Universe.mode ->
  ?verify:bool ->
  ?fault:Nascent_ir.Mutate.spec ->
  ?oracle:bool ->
  unit ->
  t

val scheme_name : scheme -> string
val kind_name : check_kind -> string

val all_schemes : scheme list
(** The paper's Table 2 rows (no MCM). *)

val extended_schemes : scheme list
(** Everything implemented, including the MCM extension. *)

val pp : t Fmt.t

val to_json : t -> Nascent_support.Json.t
(** The configuration's wire form: [scheme], [kind], [impl], [verify],
    [fault] and [oracle], in that order, each named as {!pp} names it
    ([impl] by {!Universe.mode_name}). *)

val of_json : Nascent_support.Json.t -> (t, string) result
(** Read a configuration from a request object: an absent (or
    non-string, non-bool) field takes {!default}'s value, ["fault":
    "none"] means no fault. [Error] carries the message for an unknown
    scheme, check kind, implication mode or fault, and refuses the
    CLI-only ["smoke"] fault. [of_json (to_json c) = Ok c]. *)

val cache_key : t -> string
(** Stable serialization of every axis — scheme, kind, implication
    mode {e and} [verify] — for use in content-addressed cache keys
    ({!Nascent_support.Memo}). *)
