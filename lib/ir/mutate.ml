(* Seeded fault injection for the fail-safe optimizer pipeline.

   Each mutation class deliberately corrupts a pass's output in a way
   the inter-pass contract (the {!Verify} differential rules, or the
   per-pass fuel budget) must catch; the optimizer then proves the
   recovery path by rolling the pass back and continuing. The classes
   map onto the verifier's failure domains:

   - [Drop_check]    removes a check            -> count preservation
   - [Weaken_check]  raises a check constant    -> strengthening rule
   - [Break_edge]    dangles a terminator       -> structural CFG rule
   - [Unsafe_insert] re-inserts a check above a
     definition of one of its symbols           -> anticipatability
   - [Hang_fixpoint] spins on the ambient fuel  -> per-pass budget
   - [Unsound_eliminate] deletes a live check   -> translation validator

   [Unsound_eliminate] is deliberately invisible to every differential
   rule: redundancy elimination is {e allowed} to delete checks, so the
   deletion sails through the Elimination rule, and a trap-free run
   cannot tell the difference either. Only the per-compile translation
   validator ({!Validate}) — which must re-prove every reference check
   site from what remains — can catch it, which is exactly what the
   class exists to demonstrate. The class picks its deletion by asking
   that validator, so it deletes only what the certificate refuses to
   lose.

   Every choice is driven by a caller-supplied seed through a small
   LCG, so a failing injection replays exactly from its seed. Faults
   attach to a fixed target pass per class ({!target_pass}); a
   configuration whose pipeline never runs that pass simply applies
   nothing (the driver treats "not applied" as vacuous, not as a
   recovery success). *)

module Check = Nascent_checks.Check
open Types

type cls =
  | Drop_check
  | Weaken_check
  | Break_edge
  | Unsafe_insert
  | Hang_fixpoint
  | Unsound_eliminate

let all_classes =
  [
    Drop_check;
    Weaken_check;
    Break_edge;
    Unsafe_insert;
    Hang_fixpoint;
    Unsound_eliminate;
  ]

let cls_name = function
  | Drop_check -> "drop-check"
  | Weaken_check -> "weaken-check"
  | Break_edge -> "break-edge"
  | Unsafe_insert -> "unsafe-insert"
  | Hang_fixpoint -> "hang-fixpoint"
  | Unsound_eliminate -> "unsound-eliminate"

let cls_of_name s =
  List.find_opt (fun c -> cls_name c = s) all_classes

(* The optimizer pass after whose body the corruption is applied. The
   strengthening classes need a count-preserving differential rule;
   the structural and fuel classes attach to "eliminate" because every
   scheme's pipeline runs it. *)
let target_pass = function
  | Drop_check | Weaken_check -> "strengthen"
  | Break_edge | Hang_fixpoint | Unsound_eliminate -> "eliminate"
  | Unsafe_insert -> "pre-insert"

let hangs = function Hang_fixpoint -> true | _ -> false

type spec = { cls : cls; seed : int }

let spec_name { cls; seed } = Printf.sprintf "%s:%d" (cls_name cls) seed

type request = Smoke | Single of spec

let parse_request s =
  match String.trim s with
  | "smoke" -> Ok Smoke
  | s -> (
      let cls_str, seed =
        match String.index_opt s ':' with
        | None -> (s, Ok 0)
        | Some i -> (
            ( String.sub s 0 i,
              let tail = String.sub s (i + 1) (String.length s - i - 1) in
              match int_of_string_opt tail with
              | Some n -> Ok n
              | None -> Error (Printf.sprintf "bad fault seed %S" tail) ))
      in
      match (cls_of_name cls_str, seed) with
      | _, Error e -> Error e
      | None, _ ->
          Error
            (Printf.sprintf "unknown fault class %S (expected %s, or \"smoke\")"
               cls_str
               (String.concat ", " (List.map cls_name all_classes)))
      | Some cls, Ok seed -> Ok (Single { cls; seed }))

(* --- seeded choice ----------------------------------------------------- *)

(* MINSTD LCG: deterministic, stdlib-free, replayable from the seed. *)
let next_state st = (st * 48271 + 1) land 0x3FFFFFFF
let pick st n = if n <= 0 then invalid_arg "Mutate.pick" else st mod n

let nth_opt xs n = List.nth_opt xs n

(* --- per-class corruption ---------------------------------------------- *)

(* Positions of check-bearing instructions in reachable blocks. *)
let check_sites (f : Func.t) : (block * int * check_meta) list =
  let reach = Func.reachable f in
  let acc = ref [] in
  Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then
        List.iteri
          (fun j i ->
            match i with
            | Check m | Cond_check (_, m) -> acc := (b, j, m) :: !acc
            | _ -> ())
          b.instrs)
    f;
  List.rev !acc

let remove_at j instrs = List.filteri (fun k _ -> k <> j) instrs

let replace_at j i' instrs = List.mapi (fun k i -> if k = j then i' else i) instrs

let insert_at j i' instrs =
  let rec go k = function
    | rest when k = j -> i' :: rest
    | x :: rest -> x :: go (k + 1) rest
    | [] -> [ i' ]
  in
  go 0 instrs

(* The sites whose instruction is a plain (unguarded) check. *)
let plain_check_sites (f : Func.t) =
  List.filter
    (fun (b, j, _) -> match nth_opt b.instrs j with Some (Check _) -> true | _ -> false)
    (check_sites f)

let apply_drop_check st (f : Func.t) =
  match check_sites f with
  | [] -> false
  | sites ->
      let b, j, _ = List.nth sites (pick st (List.length sites)) in
      b.instrs <- remove_at j b.instrs;
      true

(* Raising the constant weakens the check: the strengthening rule
   demands the replacement imply a removed same-family original, and a
   million-weaker check implies nothing the suite contains. *)
let apply_weaken_check st (f : Func.t) =
  match plain_check_sites f with
  | [] -> false
  | sites ->
      let b, j, m = List.nth sites (pick st (List.length sites)) in
      let weakened = Check.make (Check.lhs m.chk) (Check.constant m.chk + 1_000_003) in
      b.instrs <- replace_at j (Check { m with chk = weakened }) b.instrs;
      true

let apply_break_edge st (f : Func.t) =
  let reach = Func.reachable f in
  let acc = ref [] in
  Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then
        match b.term with Goto _ | Branch _ -> acc := b :: !acc | Ret -> ())
    f;
  match List.rev !acc with
  | [] -> false
  | bs ->
      let b = List.nth bs (pick st (List.length bs)) in
      let dangling = Func.num_blocks f + 7 in
      (match b.term with
      | Goto _ -> b.term <- Goto dangling
      | Branch (c, x, _) -> b.term <- Branch (c, x, dangling)
      | Ret -> assert false);
      true

(* Insert a fresh copy of an existing check immediately above an
   assignment to one of the variables its range expression mentions:
   the copy checks the variable's PRE-assignment value, which no
   execution of the original program checked there — exactly the
   "inserted check above a definition of one of its symbols" unsafety
   the anticipatability rule (DESIGN.md 5.4) exists to reject. *)
let apply_unsafe_insert st (f : Func.t) =
  let metas = List.map (fun (_, _, m) -> m) (check_sites f) in
  let reach = Func.reachable f in
  let candidates = ref [] in
  Func.iter_blocks
    (fun b ->
      if reach.(b.bid) then
        List.iteri
          (fun j i ->
            match i with
            | Assign (v, _) ->
                let kills = Atoms.killed_by_def f.Func.atoms v in
                List.iter
                  (fun (m : check_meta) ->
                    if List.exists (fun k -> Check.mentions_key m.chk k) kills then
                      candidates := (b, j, m) :: !candidates)
                  metas
            | _ -> ())
          b.instrs)
    f;
  match List.rev !candidates with
  | [] -> false
  | cs ->
      let b, j, m = List.nth cs (pick st (List.length cs)) in
      b.instrs <- insert_at j (Check { m with src_array = m.src_array }) b.instrs;
      true

(* Delete a check the residual program still relies on: the first
   plain check, in seeded order wrapping around, whose deletion the
   translation validator ({!Validate}) refuses, asked on a fresh pool
   with the function as it stood as the reference. The deletion is
   legal under every differential rule — elimination may delete checks
   — so nothing rolls back; the per-compile translation validator is
   the only mechanism left that can notice the reference site is no
   longer covered. Vacuous (returns [false]) when the validator
   re-proves every plain check without it. *)
let apply_unsound_eliminate st (f : Func.t) =
  let sites = Array.of_list (plain_check_sites f) in
  let n = Array.length sites in
  n > 0
  &&
  let original = Transform.copy_func f in
  let start = pick st n in
  let refused k =
    let b, j, _ = sites.((start + k) mod n) in
    let instrs = b.instrs in
    b.instrs <- remove_at j instrs;
    let pool = Nascent_checks.Intern.create () in
    let proven = Validate.validated (Validate.func_guarded ~pool ~original ~optimized:f ()) in
    if proven then b.instrs <- instrs;
    not proven
  in
  List.exists refused (List.init n Fun.id)

let apply ~seed cls (f : Func.t) : bool =
  let st = next_state (seed land 0x3FFFFFFF) in
  match cls with
  | Drop_check -> apply_drop_check st f
  | Weaken_check -> apply_weaken_check st f
  | Break_edge -> apply_break_edge st f
  | Unsafe_insert -> apply_unsafe_insert st f
  | Hang_fixpoint -> false (* not a structural corruption; see {!hangs} *)
  | Unsound_eliminate -> apply_unsound_eliminate st f
