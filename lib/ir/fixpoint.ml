(* The one fixpoint engine: sweep order, staleness, the sweep cap, the
   fuel tick and the boundary blocks, shared by every data-flow
   problem (see the interface). *)

module Guard = Nascent_support.Guard

type direction = Forward | Backward

type 'a fact = Unreachable | Reached of 'a

let iterate ?(cap = max_int) (f : Func.t) direction visit =
  let c = Func.cfg f in
  let order, sources, dependents =
    match direction with
    | Forward -> (c.Func.order, c.Func.pred, c.Func.succ)
    | Backward -> (List.rev c.Func.order, c.Func.succ, c.Func.pred)
  in
  let is_boundary =
    match direction with
    | Forward -> fun b -> b = f.Func.entry
    | Backward ->
        (* exit blocks, plus blocks that cannot reach one *)
        let reaches_exit = Func.reaches_exit f in
        fun b -> c.Func.succ.(b) = [] || not reaches_exit.(b)
  in
  (* A block's value is a function of its sources' results, so a sweep
     re-evaluates a block only if it has never been evaluated or one of
     its sources changed since; any other block would recompute what it
     already holds. *)
  let stale = Array.make (Array.length sources) true in
  let changed = ref true and sweep = ref 0 in
  while !changed && !sweep < cap do
    incr sweep;
    changed := false;
    List.iter
      (fun b ->
        if stale.(b) then begin
          stale.(b) <- false;
          Guard.tick_ambient ();
          Nascent_checks.Work.visit ();
          if visit ~sweep:!sweep b (if is_boundary b then [] else sources.(b)) then begin
            changed := true;
            List.iter (fun d -> stale.(d) <- true) dependents.(b)
          end
        end)
      order
  done;
  not !changed

type 'a problem = {
  direction : direction;
  boundary : 'a fact;
  join : sweep:int -> prev:'a fact -> int -> (int * 'a) list -> 'a fact;
  transfer : int -> 'a -> 'a fact;
  equal : 'a -> 'a -> bool;
}

type 'a solution = { flow_in : 'a fact array; flow_out : 'a fact array; converged : bool }

let solve ?cap ?seed (f : Func.t) (p : 'a problem) : 'a solution =
  let n = Func.num_blocks f in
  let flow_in = Array.make n Unreachable and flow_out = Array.make n Unreachable in
  let visited = Array.make n false in
  let transfer b = function Unreachable -> Unreachable | Reached x -> p.transfer b x in
  Option.iter
    (fun seed ->
      List.iter
        (fun b ->
          flow_in.(b) <- Reached (seed b);
          flow_out.(b) <- transfer b flow_in.(b);
          visited.(b) <- true)
        (Func.cfg f).Func.order)
    seed;
  let equal a b =
    match (a, b) with
    | Unreachable, Unreachable -> true
    | Reached x, Reached y -> p.equal x y
    | _ -> false
  in
  let visit ~sweep b sources =
    let v =
      match sources with
      | [] -> p.boundary
      | _ ->
          p.join ~sweep ~prev:flow_in.(b) b
            (List.filter_map
               (fun s -> match flow_out.(s) with Reached x -> Some (s, x) | Unreachable -> None)
               sources)
    in
    if visited.(b) && equal v flow_in.(b) then false
    else begin
      flow_in.(b) <- v;
      let o = transfer b v in
      let changed = (not visited.(b)) || not (equal o flow_out.(b)) in
      visited.(b) <- true;
      flow_out.(b) <- o;
      changed
    end
  in
  let converged = iterate ?cap f p.direction visit in
  { flow_in; flow_out; converged }
