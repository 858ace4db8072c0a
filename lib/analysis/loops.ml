(* Natural loops.

   Finds back edges (edges whose target dominates their source), builds
   the natural loop of each header, and pairs the result with the
   lowering-time loop metadata (do/while structure, index variables,
   bounds), which is what the preheader insertion schemes consume.

   Loops are reported innermost-first: the order in which the paper
   hoists checks "to the outermost loop possible" (section 3.3). *)

module Func = Nascent_ir.Func
module Types = Nascent_ir.Types

type loop = {
  header : int;
  blocks : int list; (* includes the header *)
  block_set : bool array; (* indexed by block id *)
  meta : Types.loop_meta option; (* from lowering, when this is a source loop *)
  defined_vids : (int, unit) Hashtbl.t; (* scalars assigned inside the loop *)
  has_store : bool; (* any array store (or call, which may store) inside *)
  depth : int; (* nesting depth, outermost = 1 *)
}

let in_loop l bid = bid < Array.length l.block_set && l.block_set.(bid)

(* The natural loop of back edge(s) into [header]: header plus every
   block that reaches a latch without passing through the header. *)
let natural_loop (f : Func.t) preds header latches =
  let n = Func.num_blocks f in
  let inset = Array.make n false in
  inset.(header) <- true;
  let rec pull b =
    if not inset.(b) then begin
      inset.(b) <- true;
      List.iter pull preds.(b)
    end
  in
  List.iter pull latches;
  inset

let collect_defined (f : Func.t) inset =
  let defined = Hashtbl.create 16 in
  let has_store = ref false in
  Func.iter_blocks
    (fun b ->
      if inset.(b.Types.bid) then
        List.iter
          (fun (i : Types.instr) ->
            match i with
            | Types.Assign (v, _) -> Hashtbl.replace defined v.Types.vid ()
            | Types.Store _ | Types.Call _ -> has_store := true
            | _ -> ())
          b.Types.instrs)
    f;
  (defined, !has_store)

let compute (f : Func.t) : loop list =
  let idom = Func.idom f in
  let preds = Func.preds_array f in
  let n = Func.num_blocks f in
  (* back edges grouped by header *)
  let latches_of = Hashtbl.create 8 in
  for b = 0 to n - 1 do
    if idom.(b) <> -1 then
      List.iter
        (fun s ->
          if Func.dominates idom s b then
            Hashtbl.replace latches_of s (b :: Option.value ~default:[] (Hashtbl.find_opt latches_of s)))
        (Func.succs f b)
  done;
  let meta_by_header = Hashtbl.create 8 in
  List.iter
    (fun (m : Types.loop_meta) ->
      let h = match m with Types.Ldo d -> d.Types.d_header | Types.Lwhile w -> w.Types.w_header in
      Hashtbl.replace meta_by_header h m)
    f.Func.loops;
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        let inset = natural_loop f preds header latches in
        let blocks = ref [] in
        Array.iteri (fun i b -> if b then blocks := i :: !blocks) inset;
        let defined_vids, has_store = collect_defined f inset in
        {
          header;
          blocks = !blocks;
          block_set = inset;
          meta = Hashtbl.find_opt meta_by_header header;
          defined_vids;
          has_store;
          depth = 0;
        }
        :: acc)
      latches_of []
  in
  (* Nesting depth = number of loops containing the header; sort
     innermost-first (deepest depth first, ties by smaller size). *)
  let depth_of l =
    List.length
      (List.filter (fun l' -> in_loop l' l.header) loops)
  in
  let with_depth = List.map (fun l -> { l with depth = depth_of l }) loops in
  List.sort
    (fun a b ->
      let c = compare b.depth a.depth in
      if c <> 0 then c else compare (List.length a.blocks) (List.length b.blocks))
    with_depth

(* Is variable [vid] (re)defined inside loop [l]? *)
let defines l vid = Hashtbl.mem l.defined_vids vid

(* The innermost loop (from [loops], innermost-first) containing block
   [bid], if any. *)
let innermost_containing loops bid =
  List.find_opt (fun l -> in_loop l bid) loops
