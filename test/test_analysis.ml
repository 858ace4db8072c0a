(* Dominance, natural loops, the data-flow solver, and CFG utilities. *)

open Util
module Ir = Nascent_ir
module Dominance = Nascent_analysis.Dominance
module Loops = Nascent_analysis.Loops
module Dataflow = Nascent_analysis.Dataflow
module Bitset = Nascent_support.Bitset

let func_of src = Ir.Program.main_func (ir_of_source src)

let diamond_src =
  "program d\ninteger n, r\nn = 1\nif n > 0 then\nr = 1\nelse\nr = 2\nendif\nprint r\nend"

let loop_src =
  "program l\ninteger i, s\ns = 0\ndo i = 1, 10\ns = s + i\nenddo\nprint s\nend"

let nested_src =
  "program n2\n\
   integer i, j, s\n\
   s = 0\n\
   do i = 1, 3\n\
   do j = 1, 4\n\
   s = s + 1\n\
   enddo\n\
   enddo\n\
   print s\n\
   end"

let while_src = "program w\ninteger n\nn = 0\nwhile n < 5 do\nn = n + 1\nendwhile\nend"

(* --- dominance -------------------------------------------------------- *)

let test_dom_entry_dominates_all () =
  let f = func_of diamond_src in
  let dominates = Ir.Func.dominates (Ir.Func.idom f) in
  let dom = Dominance.compute f in
  let entry = f.Ir.Func.entry in
  Ir.Func.iter_blocks
    (fun b ->
      if Dominance.reachable dom b.Ir.Types.bid then
        Alcotest.(check bool)
          (Fmt.str "entry dom B%d" b.Ir.Types.bid)
          true
          (dominates entry b.Ir.Types.bid))
    f

let test_dom_reflexive_antisymmetric () =
  let f = func_of nested_src in
  let dominates = Ir.Func.dominates (Ir.Func.idom f) in
  let dom = Dominance.compute f in
  let n = Ir.Func.num_blocks f in
  for a = 0 to n - 1 do
    if Dominance.reachable dom a then begin
      Alcotest.(check bool) "reflexive" true (dominates a a);
      for b = 0 to n - 1 do
        if Dominance.reachable dom b && a <> b then
          Alcotest.(check bool) "antisymmetric" false
            (dominates a b && dominates b a)
      done
    end
  done

let test_dom_branch_blocks_dont_dominate_join () =
  let f = func_of diamond_src in
  let dominates = Ir.Func.dominates (Ir.Func.idom f) in
  (* the join has two preds, neither of which dominates it *)
  let preds = Ir.Func.preds_array f in
  let joins = ref [] in
  Array.iteri (fun b ps -> if List.length ps = 2 then joins := (b, ps) :: !joins) preds;
  Alcotest.(check bool) "has a join" true (!joins <> []);
  List.iter
    (fun (j, ps) ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "pred not dominator" false (dominates p j))
        ps)
    !joins

let test_dom_idom_of_loop_body () =
  let f = func_of loop_src in
  let dominates = Ir.Func.dominates (Ir.Func.idom f) in
  (* every loop body block is dominated by the loop header *)
  let loops = Loops.compute f in
  let l = List.hd loops in
  List.iter
    (fun b ->
      Alcotest.(check bool) "header dominates body" true
        (dominates l.Loops.header b))
    l.Loops.blocks

let test_dom_frontier_of_branch () =
  let f = func_of diamond_src in
  let dom = Dominance.compute f in
  let df = Dominance.frontiers dom in
  (* both branch arms have the join in their dominance frontier *)
  let joins =
    Array.to_list (Ir.Func.preds_array f)
    |> List.mapi (fun b ps -> (b, ps))
    |> List.filter (fun (_, ps) -> List.length ps = 2)
    |> List.map fst
  in
  let join = List.hd joins in
  let arms = (Ir.Func.preds_array f).(join) in
  List.iter
    (fun arm ->
      Alcotest.(check bool) (Fmt.str "join in DF(B%d)" arm) true (List.mem join df.(arm)))
    arms

(* --- loops ------------------------------------------------------------ *)

let test_loops_single () =
  let f = func_of loop_src in
  let loops = Loops.compute f in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check bool) "has do meta" true
    (match l.Loops.meta with Some (Ir.Types.Ldo _) -> true | _ -> false);
  (* the loop defines its index and the accumulator *)
  Alcotest.(check bool) "defines i and s" true (Hashtbl.length l.Loops.defined_vids >= 2)

let test_loops_nested_innermost_first () =
  let f = func_of nested_src in
  let loops = Loops.compute f in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let inner = List.nth loops 0 and outer = List.nth loops 1 in
  Alcotest.(check bool) "inner inside outer" true (Loops.in_loop outer inner.Loops.header);
  Alcotest.(check bool) "outer not inside inner" false
    (Loops.in_loop inner outer.Loops.header);
  Alcotest.(check bool) "depth order" true (inner.Loops.depth > outer.Loops.depth)

let test_loops_while_meta () =
  let f = func_of while_src in
  let loops = Loops.compute f in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  match (List.hd loops).Loops.meta with
  | Some (Ir.Types.Lwhile _) -> ()
  | _ -> Alcotest.fail "expected while metadata"

let test_loops_no_store_flag () =
  let f = func_of loop_src in
  let l = List.hd (Loops.compute f) in
  Alcotest.(check bool) "scalar loop has no store" false l.Loops.has_store;
  let f2 =
    func_of "program s\ninteger i, a(1:10)\ndo i = 1, 10\na(i) = 0\nenddo\nend"
  in
  let l2 = List.hd (Loops.compute f2) in
  Alcotest.(check bool) "array loop has store" true l2.Loops.has_store

let test_innermost_containing () =
  let f = func_of nested_src in
  let loops = Loops.compute f in
  let inner = List.nth loops 0 in
  (* a block of the inner loop maps to the inner loop *)
  let body = List.find (fun b -> b <> inner.Loops.header) inner.Loops.blocks in
  match Loops.innermost_containing loops body with
  | Some l -> Alcotest.(check int) "innermost" inner.Loops.header l.Loops.header
  | None -> Alcotest.fail "no loop found"

(* --- critical edge splitting ------------------------------------------ *)

let test_split_critical_edges () =
  (* loop exit edge (header -> exit) is critical when the exit has
     another predecessor; after splitting, no branch target with
     multiple preds remains reachable from a multi-successor block *)
  let f = func_of "program c\ninteger i, j, s\ns = 0\ndo i = 1, 3\nif s > 1 then\ns = s - 1\nendif\nenddo\ndo j = 1, 2\ns = s + 1\nenddo\nprint s\nend" in
  ignore (Ir.Func.split_critical_edges f);
  let preds = Ir.Func.preds_array f in
  Ir.Func.iter_blocks
    (fun b ->
      match b.Ir.Types.term with
      | Ir.Types.Branch (_, x, y) when x <> y ->
          List.iter
            (fun t ->
              Alcotest.(check bool)
                (Fmt.str "edge B%d->B%d not critical" b.Ir.Types.bid t)
                true
                (List.length preds.(t) <= 1))
            [ x; y ]
      | _ -> ())
    f;
  (* behaviour is unchanged *)
  let prog = ir_of_source "program c\ninteger i, j, s\ns = 0\ndo i = 1, 3\nif s > 1 then\ns = s - 1\nendif\nenddo\ndo j = 1, 2\ns = s + 1\nenddo\nprint s\nend" in
  let f2 = Ir.Program.main_func prog in
  let before = Nascent_interp.Run.run prog in
  ignore (Ir.Func.split_critical_edges f2);
  let after = Nascent_interp.Run.run prog in
  Alcotest.(check bool) "same output" true
    (List.for_all2 Nascent_interp.Value.equal before.printed after.printed)

(* --- generic data-flow solver ------------------------------------------ *)

(* Reaching-of-one-token experiment: GEN in one block, KILL in another,
   must-confluence. On the diamond: token generated before the branch
   reaches the join; token generated in one arm does not. *)
let test_solver_must_confluence () =
  let f = func_of diamond_src in
  let n = Ir.Func.num_blocks f in
  let preds = Ir.Func.preds_array f in
  let join = ref (-1) in
  Array.iteri (fun b ps -> if List.length ps = 2 then join := b) preds;
  let arm = List.hd preds.(!join) in
  let mk_transfer gen_in =
    Array.init n (fun b ->
        let gen = Bitset.create 1 and kill = Bitset.create 1 in
        if b = gen_in then Bitset.add gen 0;
        { Dataflow.gen; kill })
  in
  (* generated in the entry: available at the join *)
  let r = Dataflow.solve f ~top:(Bitset.full 1) ~direction:Dataflow.Forward
      ~boundary:(Bitset.create 1) ~transfer:(mk_transfer f.Ir.Func.entry)
  in
  Alcotest.(check bool) "entry gen reaches join" true (Bitset.mem r.Dataflow.in_.(!join) 0);
  (* generated in one arm only: not available at the join *)
  let r2 = Dataflow.solve f ~top:(Bitset.full 1) ~direction:Dataflow.Forward
      ~boundary:(Bitset.create 1) ~transfer:(mk_transfer arm)
  in
  Alcotest.(check bool) "one-arm gen blocked at join" false
    (Bitset.mem r2.Dataflow.in_.(!join) 0)

let test_solver_kill () =
  let f = func_of loop_src in
  let n = Ir.Func.num_blocks f in
  (* gen at entry, kill in the loop body: not available after the loop *)
  let loops = Loops.compute f in
  let l = List.hd loops in
  let body = List.find (fun b -> b <> l.Loops.header) l.Loops.blocks in
  let transfer =
    Array.init n (fun b ->
        let gen = Bitset.create 1 and kill = Bitset.create 1 in
        if b = f.Ir.Func.entry then Bitset.add gen 0;
        if b = body then Bitset.add kill 0;
        { Dataflow.gen; kill })
  in
  let r = Dataflow.solve f ~top:(Bitset.full 1) ~direction:Dataflow.Forward
      ~boundary:(Bitset.create 1) ~transfer
  in
  (* at the loop header the token is not available (killed on the back
     edge path) *)
  Alcotest.(check bool) "killed around the loop" false
    (Bitset.mem r.Dataflow.in_.(l.Loops.header) 0)

let test_solver_backward () =
  let f = func_of diamond_src in
  let n = Ir.Func.num_blocks f in
  (* "anticipated": gen in both arms => anticipatable before the branch;
     gen in one arm only => not *)
  let preds = Ir.Func.preds_array f in
  let join = ref (-1) in
  Array.iteri (fun b ps -> if List.length ps = 2 then join := b) preds;
  let arms = preds.(!join) in
  let mk gens =
    Array.init n (fun b ->
        let gen = Bitset.create 1 and kill = Bitset.create 1 in
        if List.mem b gens then Bitset.add gen 0;
        { Dataflow.gen; kill })
  in
  let r = Dataflow.solve f ~top:(Bitset.full 1) ~direction:Dataflow.Backward
      ~boundary:(Bitset.create 1) ~transfer:(mk arms)
  in
  Alcotest.(check bool) "both arms => anticipatable at entry" true
    (Bitset.mem r.Dataflow.in_.(f.Ir.Func.entry) 0);
  let r2 = Dataflow.solve f ~top:(Bitset.full 1) ~direction:Dataflow.Backward
      ~boundary:(Bitset.create 1) ~transfer:(mk [ List.hd arms ])
  in
  Alcotest.(check bool) "one arm => not anticipatable" false
    (Bitset.mem r2.Dataflow.in_.(f.Ir.Func.entry) 0)

(* Regression: a CFG region with no path to any exit block. The solver
   used to leave such blocks at the optimistic full set — the backward
   boundary only applies at successor-less blocks, and an infinite loop
   has none — reporting facts "anticipatable" with no witness on any
   path. They must be forced to the pessimistic empty set instead. *)
let test_solver_backward_no_exit () =
  let f = Ir.Func.create ~name:"inf" ~params:[] in
  let b0 = Ir.Func.new_block f in
  let b1 = Ir.Func.new_block f in
  b0.Ir.Types.term <- Ir.Types.Goto b1.Ir.Types.bid;
  b1.Ir.Types.term <- Ir.Types.Goto b1.Ir.Types.bid;
  let n = Ir.Func.num_blocks f in
  (* nothing is generated anywhere, so nothing may be anticipatable *)
  let transfer =
    Array.init n (fun _ ->
        { Dataflow.gen = Bitset.create 1; kill = Bitset.create 1 })
  in
  let r =
    Dataflow.solve f ~top:(Bitset.full 1) ~direction:Dataflow.Backward
      ~boundary:(Bitset.create 1) ~transfer
  in
  for b = 0 to n - 1 do
    Alcotest.(check bool) (Fmt.str "B%d in empty" b) true
      (Bitset.is_empty r.Dataflow.in_.(b));
    Alcotest.(check bool) (Fmt.str "B%d out empty" b) true
      (Bitset.is_empty r.Dataflow.out.(b))
  done

(* --- the fixpoint engine ------------------------------------------------ *)

module Fixpoint = Ir.Fixpoint

(* A toy lattice: sorted int lists, meet by intersection. *)
let inter_all = function
  | [] -> Fixpoint.Unreachable
  | (_, x) :: rest ->
      Fixpoint.Reached (List.fold_left (fun acc (_, y) -> List.filter (fun e -> List.mem e y) acc) x rest)

let toy ~direction ~boundary ~transfer =
  {
    Fixpoint.direction;
    boundary;
    join = (fun ~sweep:_ ~prev:_ _ live -> inter_all live);
    transfer;
    equal = ( = );
  }

let blocks f k = List.init k (fun _ -> Ir.Func.new_block f)

(* Every block of an infinite loop sits in a no-exit region, so a
   backward problem starts there from its boundary value, not from the
   optimistic meet of the loop's own values. *)
let test_fixpoint_backward_no_exit () =
  let f = Ir.Func.create ~name:"inf" ~params:[] in
  let b0, b1 = match blocks f 2 with [ b0; b1 ] -> (b0, b1) | _ -> assert false in
  b0.Ir.Types.term <- Ir.Types.Goto b1.Ir.Types.bid;
  b1.Ir.Types.term <- Ir.Types.Goto b1.Ir.Types.bid;
  let s =
    Fixpoint.solve f
      (toy ~direction:Fixpoint.Backward ~boundary:(Fixpoint.Reached [ 7 ])
         ~transfer:(fun b x -> Fixpoint.Reached (List.sort_uniq compare (b :: x))))
  in
  Alcotest.(check bool) "converged" true s.Fixpoint.converged;
  List.iter
    (fun b ->
      Alcotest.(check bool) (Fmt.str "B%d starts from the boundary" b) true
        (s.Fixpoint.flow_in.(b) = Fixpoint.Reached [ 7 ]))
    [ 0; 1 ]

(* B0 branches to B1, which traps, and to B2; B1 goes on to B4, whose
   only predecessor it is, and both arms meet in B3. B4 is unreachable
   rather than holding no facts, and the meet at B3 sees only B2. *)
let test_fixpoint_unreachable_past_trap () =
  let f = Ir.Func.create ~name:"trap" ~params:[] in
  let b0, b1, b2, b3, b4 =
    match blocks f 5 with [ b0; b1; b2; b3; b4 ] -> (b0, b1, b2, b3, b4) | _ -> assert false
  in
  let open Ir.Types in
  b0.term <- Branch (Cbool true, b1.bid, b2.bid);
  b1.instrs <- [ Trap "always" ];
  b1.term <- Goto b4.bid;
  b4.term <- Goto b3.bid;
  b2.term <- Goto b3.bid;
  b3.term <- Ret;
  let transfer b x =
    if List.exists (function Trap _ -> true | _ -> false) (Ir.Func.block f b).instrs then
      Fixpoint.Unreachable
    else Fixpoint.Reached (List.sort_uniq compare (b :: x))
  in
  let s =
    Fixpoint.solve f (toy ~direction:Fixpoint.Forward ~boundary:(Fixpoint.Reached []) ~transfer)
  in
  Alcotest.(check bool) "B4 in: unreachable" true (s.Fixpoint.flow_in.(b4.bid) = Fixpoint.Unreachable);
  Alcotest.(check bool) "B4 out: unreachable" true
    (s.Fixpoint.flow_out.(b4.bid) = Fixpoint.Unreachable);
  Alcotest.(check bool) "B3 meets B2 alone" true
    (s.Fixpoint.flow_in.(b3.bid) = Fixpoint.Reached [ b0.bid; b2.bid ])

(* A transfer that never settles (a loop counter growing on every
   visit) stops at the cap, and before a far cap the ambient fuel,
   which every visit charges, cuts it off. *)
let test_fixpoint_non_monotone_capped () =
  let f = func_of loop_src in
  let visits = ref 0 in
  let problem =
    {
      Fixpoint.direction = Fixpoint.Forward;
      boundary = Fixpoint.Reached 0;
      join =
        (fun ~sweep:_ ~prev:_ _ live ->
          Fixpoint.Reached (List.fold_left (fun acc (_, x) -> max acc x) 0 live));
      transfer =
        (fun _ x ->
          incr visits;
          Fixpoint.Reached (x + 1));
      equal = Int.equal;
    }
  in
  let s = Fixpoint.solve ~cap:5 f problem in
  Alcotest.(check bool) "not converged" false s.Fixpoint.converged;
  let reachable = List.length (Ir.Func.rpo f) in
  Alcotest.(check bool) "at most 5 sweeps" true (!visits <= 5 * reachable);
  (* a cap far past the fuel, so a solve that stopped ticking fails
     here instead of spinning *)
  let guard = Nascent_support.Guard.fuel ~what:"toy" ~budget:1000 in
  match Nascent_support.Guard.with_fuel guard (fun () -> Fixpoint.solve ~cap:100_000 f problem) with
  | _ -> Alcotest.fail "the fuel did not cut off a divergent solve"
  | exception Nascent_support.Guard.Fuel_exhausted "toy" -> ()

let suite =
  [
    tc "dom: entry dominates all" test_dom_entry_dominates_all;
    tc "dom: reflexive/antisymmetric" test_dom_reflexive_antisymmetric;
    tc "dom: branch arms don't dominate join" test_dom_branch_blocks_dont_dominate_join;
    tc "dom: header dominates loop body" test_dom_idom_of_loop_body;
    tc "dom: frontier of branch arms" test_dom_frontier_of_branch;
    tc "loops: single do" test_loops_single;
    tc "loops: nested innermost first" test_loops_nested_innermost_first;
    tc "loops: while meta" test_loops_while_meta;
    tc "loops: store flag" test_loops_no_store_flag;
    tc "loops: innermost containing" test_innermost_containing;
    tc "cfg: split critical edges" test_split_critical_edges;
    tc "solver: must confluence" test_solver_must_confluence;
    tc "solver: kill" test_solver_kill;
    tc "solver: backward" test_solver_backward;
    tc "solver: backward, no exit" test_solver_backward_no_exit;
    tc "fixpoint: backward boundary at no-exit blocks" test_fixpoint_backward_no_exit;
    tc "fixpoint: unreachable past a trap" test_fixpoint_unreachable_past_trap;
    tc "fixpoint: non-monotone instance stops at its cap" test_fixpoint_non_monotone_capped;
  ]
