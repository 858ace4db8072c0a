(* SSA overlay.

   Rather than rewriting the IR into SSA form, this module computes the
   SSA name structure *about* the IR: definitions (entry values,
   assignments, phi nodes placed on dominance frontiers) and, per
   instruction site, the environment mapping each variable to its
   reaching definition. Induction variable analysis (paper section 2.3)
   and the INX check rewriting are the clients.

   Only reachable blocks are renamed; sites in unreachable blocks have
   no snapshot. *)

module Func = Nascent_ir.Func
module Vec = Nascent_support.Vec
open Nascent_ir.Types

type def_id = int

type def_desc =
  | Dentry of var (* the value on function entry (parameter or zero) *)
  | Dassign of { bid : int; idx : int; v : var; rhs : expr }
  | Dphi of { bid : int; v : var; mutable args : (int * def_id) list }
      (* args: (predecessor block, reaching def along that edge) *)

type t = {
  func : Func.t;
  defs : def_desc Vec.t;
  (* [vid -> def id] at the entry of each reachable block, its phis
     applied; [None] for unreachable blocks *)
  entry_env : int array option array;
  (* the def id each instruction of a block assigns, -1 if none *)
  defs_at : int array array;
  (* environments built by [snapshot], per block and instruction index;
     [||] until asked for *)
  snapshots : int array array array;
  (* phis placed at each block: (vid, def id) list *)
  phis_at : (int, (int * def_id) list) Hashtbl.t;
  nvars : int;
}

let def t (d : def_id) = Vec.get t.defs d

let var_of_def t (d : def_id) =
  match def t d with Dentry v -> v | Dassign { v; _ } -> v | Dphi { v; _ } -> v

let def_block t (d : def_id) =
  match def t d with
  | Dentry _ -> None
  | Dassign { bid; _ } -> Some bid
  | Dphi { bid; _ } -> Some bid

(* A site's environment is its block's entry environment with the
   block's earlier assignments replayed. Most sites are never asked
   about (the INX rewrite asks at checks and at the definitions it
   resolves through), so it is built on first request and kept. *)
let snapshot t ~bid ~idx =
  if bid < 0 || bid >= Array.length t.entry_env then None
  else
    match t.entry_env.(bid) with
    | None -> None
    | Some base ->
        let dids = t.defs_at.(bid) in
        if idx < 0 || idx >= Array.length dids then None
        else begin
          let known = t.snapshots.(bid).(idx) in
          if Array.length known = t.nvars && t.nvars > 0 then Some known
          else begin
            let env = Array.copy base in
            for k = 0 to idx - 1 do
              let did = dids.(k) in
              if did >= 0 then env.((var_of_def t did).vid) <- did
            done;
            t.snapshots.(bid).(idx) <- env;
            Some env
          end
        end

let phis_at t bid = Option.value ~default:[] (Hashtbl.find_opt t.phis_at bid)

(* --- construction ---------------------------------------------------- *)

let assigned_var (i : instr) : var option =
  match i with Assign (v, _) -> Some v | _ -> None

let compute (f : Func.t) : t =
  let nvars = f.Func.next_vid in
  let dom = Dominance.compute f in
  let df = Dominance.frontiers dom in
  let nblocks = Func.num_blocks f in
  let defs = Vec.create ~dummy:(Dentry { vname = "?"; vid = -1; vty = Int }) in
  (* 1. blocks assigning each var *)
  let assign_blocks = Array.make nvars [] in
  Func.iter_blocks
    (fun b ->
      if Dominance.reachable dom b.bid then
        List.iter
          (fun i ->
            match assigned_var i with
            | Some v -> assign_blocks.(v.vid) <- b.bid :: assign_blocks.(v.vid)
            | None -> ())
          b.instrs)
    f;
  (* 2. phi placement on iterated dominance frontiers *)
  let phis_at = Hashtbl.create 16 in
  let vars_arr = Array.make nvars None in
  List.iter (fun (v : var) -> vars_arr.(v.vid) <- Some v) f.Func.vars;
  List.iter
    (fun p ->
      match p with
      | Pscalar v -> vars_arr.(v.vid) <- Some v
      | Parr _ -> ())
    f.Func.params;
  (* placed.(y) = vid: variable vid already has a phi at y *)
  let placed = Array.make nblocks (-1) in
  for vid = 0 to nvars - 1 do
    match vars_arr.(vid) with
    | None -> ()
    | Some v ->
        let work = ref assign_blocks.(vid) in
        (* entry holds the initial definition, so it counts as a def site *)
        work := f.Func.entry :: !work;
        while !work <> [] do
          let b = List.hd !work in
          work := List.tl !work;
          List.iter
            (fun y ->
              if placed.(y) <> vid then begin
                placed.(y) <- vid;
                let did = Vec.push defs (Dphi { bid = y; v; args = [] }) in
                Hashtbl.replace phis_at y
                  ((vid, did) :: Option.value ~default:[] (Hashtbl.find_opt phis_at y));
                (* a phi is itself a definition *)
                work := y :: !work
              end)
            df.(b)
        done
  done;
  (* 3. renaming via dominator-tree walk *)
  let entry_env = Array.make nblocks None in
  let defs_at = Array.make nblocks [||] in
  let cur = Array.make nvars (-1) in
  for vid = 0 to nvars - 1 do
    match vars_arr.(vid) with
    | Some v -> cur.(vid) <- Vec.push defs (Dentry v)
    | None -> ()
  done;
  let children = Dominance.children dom in
  let succ = (Func.cfg f).Func.succ in
  (* One environment for the whole walk: each block records what it
     overwrote and puts it back once its dominator subtree is done. *)
  let env = cur in
  let rec walk bid =
    let saved = ref [] in
    let set vid did =
      saved := (vid, env.(vid)) :: !saved;
      env.(vid) <- did
    in
    (* phis first *)
    List.iter (fun (vid, did) -> set vid did) (phis_at_tbl bid);
    let b = Func.block f bid in
    (* a block without instructions has no sites to snapshot *)
    if b.instrs <> [] then entry_env.(bid) <- Some (Array.copy env);
    let dids = Array.make (List.length b.instrs) (-1) in
    List.iteri
      (fun idx i ->
        match i with
        | Assign (v, rhs) ->
            let did = Vec.push defs (Dassign { bid; idx; v; rhs }) in
            set v.vid did;
            dids.(idx) <- did
        | _ -> ())
      b.instrs;
    defs_at.(bid) <- dids;
    (* fill successor phi args *)
    List.iter
      (fun s ->
        List.iter
          (fun (vid, did) ->
            match Vec.get defs did with
            | Dphi p -> p.args <- (bid, env.(vid)) :: p.args
            | _ -> ())
          (phis_at_tbl s))
      succ.(bid);
    List.iter (fun c -> if Dominance.reachable dom c then walk c) children.(bid);
    List.iter (fun (vid, did) -> env.(vid) <- did) !saved
  and phis_at_tbl bid = Option.value ~default:[] (Hashtbl.find_opt phis_at bid) in
  if nblocks > 0 then walk f.Func.entry;
  let snapshots = Array.map (fun d -> Array.make (Array.length d) [||]) defs_at in
  { func = f; defs; entry_env; defs_at; snapshots; phis_at; nvars }
