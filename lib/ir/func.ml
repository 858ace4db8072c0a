(* IR functions: a CFG of basic blocks plus the tables the analyses
   need (atoms, declared arrays, loop metadata from lowering). *)

module Vec = Nascent_support.Vec
open Types

(* What the analyses derive from the terminators alone: successor and
   predecessor lists, reverse postorder, reachability, and (on first
   use) immediate dominators and the blocks that reach an exit. One
   view serves every pass and verifier run until a terminator changes
   or a block is added; only edge splitting (and a rolled-back or
   faulted pass) does either. The view is keyed by the terminators'
   physical identity, so code that assigns [b.term] directly needs no
   invalidation call: any new terminator value, even an equal one, makes
   the next {!cfg} rebuild. *)
type cfg = {
  terms : terminator array; (* the key: block i's terminator, physically *)
  centry : int;
  succ : int list array;
  pred : int list array;
  order : int list; (* reverse postorder over reachable blocks *)
  order_num : int array; (* position in [order]; -1 if unreachable *)
  reach : bool array;
  mutable idom : int array; (* [||] until first asked for *)
  mutable exits : bool array; (* [||] until first asked for *)
}

type t = {
  fname : string;
  mutable params : param list;
  mutable vars : var list; (* every scalar, including temps; entry-initialized *)
  mutable arrays : arr list;
  blocks : block Vec.t;
  mutable entry : int;
  atoms : Atoms.t;
  mutable loops : loop_meta list; (* innermost-last, in lowering order *)
  mutable next_vid : int;
  mutable view : cfg option;
}

let dummy_block = { bid = -1; instrs = []; term = Ret }

let create ~name ~params =
  {
    fname = name;
    params;
    vars = [];
    arrays = [];
    blocks = Vec.create ~dummy:dummy_block;
    entry = 0;
    atoms = Atoms.create ();
    loops = [];
    next_vid = 0;
    view = None;
  }

let fresh_var t ~name ~ty : var =
  let v = { vname = name; vid = t.next_vid; vty = ty } in
  t.next_vid <- t.next_vid + 1;
  t.vars <- v :: t.vars;
  v

let add_array t (a : arr) = t.arrays <- a :: t.arrays

let new_block t : block =
  let b = { bid = Vec.length t.blocks; instrs = []; term = Ret } in
  ignore (Vec.push t.blocks b);
  b

let block t bid = Vec.get t.blocks bid

let num_blocks t = Vec.length t.blocks

let iter_blocks f t = Vec.iter f t.blocks

let succs_of_term = function
  | Goto l -> [ l ]
  | Branch (_, a, b) -> if a = b then [ a ] else [ a; b ]
  | Ret -> []

let succs t bid = succs_of_term (block t bid).term

let view_valid t (c : cfg) =
  let n = num_blocks t in
  c.centry = t.entry
  && Array.length c.terms = n
  &&
  let i = ref 0 in
  while !i < n && (block t !i).term == c.terms.(!i) do
    incr i
  done;
  !i = n

let build_view t : cfg =
  let n = num_blocks t in
  let terms = Array.init n (fun i -> (block t i).term) in
  let succ = Array.map succs_of_term terms in
  (* Out-of-range targets (a broken CFG, which the verifier reports)
     are left out of the predecessor lists and the walk. *)
  let in_range b = b >= 0 && b < n in
  let pred = Array.make n [] in
  for b = n - 1 downto 0 do
    List.iter (fun s -> if in_range s then pred.(s) <- b :: pred.(s)) succ.(b)
  done;
  (* Depth-first from the entry, successors in terminator order;
     reverse postorder is the iteration order of the forward solvers. *)
  let reach = Array.make n false in
  let order = ref [] in
  let rec go bid =
    if in_range bid && not reach.(bid) then begin
      reach.(bid) <- true;
      List.iter go succ.(bid);
      order := bid :: !order
    end
  in
  go t.entry;
  let order_num = Array.make n (-1) in
  List.iteri (fun i b -> order_num.(b) <- i) !order;
  {
    terms;
    centry = t.entry;
    succ;
    pred;
    order = !order;
    order_num;
    reach;
    idom = [||];
    exits = [||];
  }

let cfg t : cfg =
  match t.view with
  | Some c when view_valid t c -> c
  | _ ->
      let c = build_view t in
      t.view <- Some c;
      c

(* The lists and arrays below are the shared view: read them, never
   write them. *)
let preds_array t : int list array = (cfg t).pred

(* Blocks reachable from entry; unreachable blocks are ignored by the
   analyses and the interpreter never visits them. *)
let reachable t : bool array = (cfg t).reach

(* Reverse postorder over reachable blocks, the iteration order of the
   forward data-flow solvers. *)
let rpo t : int list = (cfg t).order

(* Immediate dominators (Cooper–Harvey–Kennedy over RPO numbers): the
   entry maps to itself, unreachable blocks to -1. *)
let idom t : int array =
  let c = cfg t in
  if Array.length c.idom = Array.length c.terms then c.idom
  else begin
    let idom = Array.make (Array.length c.terms) (-1) in
    let num = c.order_num in
    if Array.length c.reach > 0 && c.reach.(t.entry) then idom.(t.entry) <- t.entry;
    let rec intersect a b =
      if a = b then a
      else if num.(a) > num.(b) then intersect idom.(a) b
      else intersect a idom.(b)
    in
    let rec meet acc = function
      | [] -> acc
      | p :: rest when idom.(p) = -1 -> meet acc rest
      | p :: rest -> meet (if acc = -1 then p else intersect p acc) rest
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          if b <> t.entry then begin
            let ni = meet (-1) c.pred.(b) in
            if ni <> -1 && idom.(b) <> ni then begin
              idom.(b) <- ni;
              changed := true
            end
          end)
        c.order
    done;
    c.idom <- idom;
    idom
  end

(* Does [a] dominate [b] in the tree [idom] (as {!idom} returns it)?
   Reflexive; false if either is unreachable. *)
let dominates (idom : int array) a b =
  if a < 0 || b < 0 || idom.(b) = -1 || idom.(a) = -1 then false
  else
    let rec up b = a = b || (idom.(b) <> b && up idom.(b)) in
    up b

(* The natural loop of back edges from [latches] into [header]: the
   header plus every block that reaches a latch without passing through
   the header. *)
let natural_loop t header latches =
  let preds = preds_array t in
  let inset = Array.make (num_blocks t) false in
  inset.(header) <- true;
  let rec pull b =
    if not inset.(b) then begin
      inset.(b) <- true;
      List.iter pull preds.(b)
    end
  in
  List.iter pull latches;
  inset

let assigned_in t inset =
  let defined = Hashtbl.create 16 and has_store = ref false in
  iter_blocks
    (fun b ->
      if inset.(b.bid) then
        List.iter
          (function
            | Assign (v, _) -> Hashtbl.replace defined v.vid ()
            | Store _ | Call _ -> has_store := true
            | _ -> ())
          b.instrs)
    t;
  (defined, !has_store)

(* Blocks with a path to a successor-less block. The rest sit in
   no-exit regions (infinite loops built directly in the IR), which the
   backward analyses treat as boundary blocks. *)
let reaches_exit t : bool array =
  let c = cfg t in
  if Array.length c.exits = Array.length c.terms then c.exits
  else begin
    let r = Array.make (Array.length c.terms) false in
    let rec mark b =
      if not r.(b) then begin
        r.(b) <- true;
        List.iter mark c.pred.(b)
      end
    in
    Array.iteri (fun b s -> if s = [] then mark b) c.succ;
    c.exits <- r;
    r
  end

(* Split every critical edge (from a multi-successor block to a
   multi-predecessor block) by inserting an empty block, so PRE edge
   insertions have a place to live. Returns true if anything changed. *)
let split_critical_edges t : bool =
  let changed = ref false in
  let preds = preds_array t in
  let split_target from_bid to_bid =
    let mid = new_block t in
    mid.term <- Goto to_bid;
    let b = block t from_bid in
    (match b.term with
    | Branch (c, x, y) ->
        let x = if x = to_bid then mid.bid else x in
        let y = if y = to_bid then mid.bid else y in
        b.term <- Branch (c, x, y)
    | Goto _ | Ret -> invalid_arg "split_critical_edges: not a branch");
    changed := true
  in
  let n = num_blocks t in
  for bid = 0 to n - 1 do
    let b = block t bid in
    match b.term with
    | Branch (_, x, y) when x <> y ->
        if List.length preds.(x) > 1 then split_target bid x;
        if List.length preds.(y) > 1 then split_target bid y
    | _ -> ()
  done;
  !changed

(* Fold over every check-bearing instruction of the function. *)
let fold_checks f init t =
  Vec.fold
    (fun acc b ->
      List.fold_left
        (fun acc i ->
          match i with
          | Check m -> f acc b i m
          | Cond_check (_, m) -> f acc b i m
          | _ -> acc)
        acc b.instrs)
    init t.blocks

let all_check_metas t : check_meta list =
  List.rev (fold_checks (fun acc _ _ m -> m :: acc) [] t)

(* Static instruction counts, as reported in Table 1: range checks are
   counted separately from other instructions. *)
let rec count_checks n = function
  | [] -> n
  | (Check _ | Cond_check _) :: rest -> count_checks (n + 1) rest
  | _ :: rest -> count_checks n rest

let static_counts t =
  let reach = reachable t in
  let instrs = ref 0 and checks = ref 0 in
  for bid = 0 to num_blocks t - 1 do
    let b = block t bid in
    if reach.(b.bid) then begin
      let c = count_checks 0 b.instrs in
      checks := !checks + c;
      instrs :=
        !instrs + List.length b.instrs - c
        + match b.term with Branch _ -> 1 | Goto _ | Ret -> 0
    end
  done;
  (!instrs, !checks)
