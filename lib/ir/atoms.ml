(* Per-function atom environment.

   Maps IR entities to the symbolic atoms of canonical range
   expressions:
   - a scalar variable maps to a stable atom;
   - a non-linear subscript subexpression maps to a hash-consed
     *opaque* atom (the whole subexpression is one symbolic term).

   The environment also answers the kill question of the check data
   flow: which atom keys does a definition of variable [v] invalidate?
   (The atom of [v] itself plus every opaque atom whose expression
   mentions [v].) *)

module Atom = Nascent_checks.Atom

type payload = Avar of Types.var | Aopaque of Types.expr

type t = {
  mutable next : int;
  var_atoms : (int, Atom.t) Hashtbl.t; (* vid -> atom *)
  mutable opaques : (Types.expr * Atom.t) list; (* hash-consed via Expr.equal *)
  payloads : (int, payload) Hashtbl.t; (* atom key -> payload *)
  killed : (int, int list) Hashtbl.t; (* vid -> atom keys killed by defining it *)
  mutable load_opaques : int list;
      (* opaque atoms whose expression reads an array: killed by any
         store or call, since memory may change under them *)
}

let create () =
  {
    next = 0;
    var_atoms = Hashtbl.create 32;
    opaques = [];
    payloads = Hashtbl.create 32;
    killed = Hashtbl.create 32;
    load_opaques = [];
  }

(* Independent copy: optimization runs on program copies that allocate
   new atoms (INX basic variables); sharing the tables would leak state
   between runs. Atom values themselves are immutable and shareable. *)
let clone t =
  {
    next = t.next;
    var_atoms = Hashtbl.copy t.var_atoms;
    opaques = t.opaques;
    payloads = Hashtbl.copy t.payloads;
    killed = Hashtbl.copy t.killed;
    load_opaques = t.load_opaques;
  }

let fresh_key t =
  let k = t.next in
  t.next <- k + 1;
  k

let add_kill t vid key =
  let old = Option.value ~default:[] (Hashtbl.find_opt t.killed vid) in
  Hashtbl.replace t.killed vid (key :: old)

let of_var t (v : Types.var) : Atom.t =
  match Hashtbl.find_opt t.var_atoms v.vid with
  | Some a -> a
  | None ->
      let a = Atom.make ~key:(fresh_key t) ~name:v.vname in
      Hashtbl.replace t.var_atoms v.vid a;
      Hashtbl.replace t.payloads (Atom.key a) (Avar v);
      add_kill t v.vid (Atom.key a);
      a

let of_opaque t (e : Types.expr) : Atom.t =
  match List.find_opt (fun (e', _) -> Expr.equal e e') t.opaques with
  | Some (_, a) -> a
  | None ->
      let a = Atom.make ~key:(fresh_key t) ~name:(Fmt.str "[%a]" Expr.pp e) in
      t.opaques <- (e, a) :: t.opaques;
      Hashtbl.replace t.payloads (Atom.key a) (Aopaque e);
      List.iter (fun (v : Types.var) -> add_kill t v.vid (Atom.key a)) (Expr.vars_of e);
      if Expr.has_load e then t.load_opaques <- Atom.key a :: t.load_opaques;
      a

let payload t key = Hashtbl.find_opt t.payloads key

let payload_exn t key =
  match Hashtbl.find t.payloads key with
  | p -> p
  | exception Not_found -> invalid_arg "Atoms.payload_exn: unknown atom key"

(* Atom keys invalidated by a definition of variable [v]. *)
let killed_by_def t (v : Types.var) : int list =
  Option.value ~default:[] (Hashtbl.find_opt t.killed v.vid)

(* Atom keys an instruction invalidates: an assignment kills its
   variable's atoms, a store to an array or a call (which may store)
   the opaque atoms that read memory. The one spelling of the rule for
   the optimizer, the verifier and the certificate. *)
let killed_by t : Types.instr -> int list = function
  | Types.Assign (v, _) -> killed_by_def t v
  | Types.Store _ | Types.Call _ -> t.load_opaques
  | Types.Check _ | Types.Cond_check _ | Types.Trap _ | Types.Print _ -> []
