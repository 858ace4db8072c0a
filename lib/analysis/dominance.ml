(* Dominators (Cooper–Harvey–Kennedy "engineered" iterative algorithm,
   in {!Func.idom}, which {!Func.dominates} queries) plus dominance
   frontiers and dominator-tree children.

   Operates on reachable blocks only; unreachable blocks report no
   dominator and dominate nothing. *)

module Func = Nascent_ir.Func

type t = {
  func : Func.t;
  idom : int array; (* immediate dominator; entry maps to itself; -1 unreachable *)
  rpo_index : int array; (* position in reverse postorder; -1 unreachable *)
  rpo : int list;
}

(* The dominator tree itself is computed once per CFG shape and cached
   on the function ({!Func.idom}); this wraps it with the RPO numbering
   of the same view. *)
let compute (f : Func.t) : t =
  let c = Func.cfg f in
  { func = f; idom = Func.idom f; rpo_index = c.Func.order_num; rpo = c.Func.order }

let idom t b = if t.idom.(b) = -1 then None else Some t.idom.(b)

let reachable t b = t.rpo_index.(b) <> -1

(* Dominator-tree children, for tree walks (SSA renaming). *)
let children t : int list array =
  let n = Array.length t.idom in
  let kids = Array.make n [] in
  for b = 0 to n - 1 do
    if t.idom.(b) <> -1 && b <> t.func.Func.entry then
      kids.(t.idom.(b)) <- b :: kids.(t.idom.(b))
  done;
  Array.map List.rev kids

(* Dominance frontiers (Cytron et al.), for phi placement. *)
let frontiers t : int list array =
  let n = Array.length t.idom in
  let df = Array.make n [] in
  let preds = Func.preds_array t.func in
  for b = 0 to n - 1 do
    if reachable t b && List.length preds.(b) >= 2 then
      List.iter
        (fun p ->
          if reachable t p then begin
            let runner = ref p in
            while !runner <> t.idom.(b) do
              if not (List.mem b df.(!runner)) then df.(!runner) <- b :: df.(!runner);
              runner := t.idom.(!runner)
            done
          end)
        preds.(b)
  done;
  df
