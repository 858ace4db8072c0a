(* Check Implication Graph (paper section 3.1).

   Nodes are *families* of checks (checks sharing a range expression);
   an edge [F -> G] with weight [w] asserts that for every constant [c],
   [Check (e_F <= c)] implies [Check (e_G <= c + w)]. A check [(F, cf)]
   is then as strong as [(G, cg)] iff [cf + W(F, G) <= cg] where
   [W(F, G)] is the shortest-path weight from F to G (a trivial path
   gives the within-family rule [cf <= cg]).

   When two edges connect the same pair of families, the minimum weight
   is kept — the tighter implication subsumes the looser one. *)

type family_id = int

type t = {
  families : (Linexpr.t, family_id) Hashtbl.t;
  mutable exprs : Linexpr.t array; (* family id -> range expression *)
  mutable nfam : int;
  edges : (family_id * family_id, int) Hashtbl.t;
  mutable closure : int option array array; (* shortest paths; lazily rebuilt *)
  mutable closure_valid : bool;
}

let create () =
  {
    families = Hashtbl.create 64;
    exprs = Array.make 16 Linexpr.zero;
    nfam = 0;
    edges = Hashtbl.create 16;
    closure = [||];
    closure_valid = false;
  }

let family_of_expr t (e : Linexpr.t) : family_id =
  match Hashtbl.find_opt t.families e with
  | Some id -> id
  | None ->
      let id = t.nfam in
      t.nfam <- id + 1;
      if id >= Array.length t.exprs then begin
        let exprs = Array.make (max 16 (2 * Array.length t.exprs)) Linexpr.zero in
        Array.blit t.exprs 0 exprs 0 (Array.length t.exprs);
        t.exprs <- exprs
      end;
      t.exprs.(id) <- e;
      Hashtbl.replace t.families e id;
      t.closure_valid <- false;
      id

let family_of_check t (c : Check.t) = family_of_expr t (Check.family_key c)

(* [add_implication t ~from:(F, cf) ~to_:(G, cg)] records that the check
   [(F <= cf)] implies [(G <= cg)], generalized shift-invariantly to the
   whole families via an edge of weight [cg - cf]. *)
let add_edge t ~from ~to_ ~weight =
  if from <> to_ then begin
    let key = (from, to_) in
    (match Hashtbl.find_opt t.edges key with
    | Some w when w <= weight -> ()
    | _ ->
        Hashtbl.replace t.edges key weight;
        t.closure_valid <- false)
  end

let add_implication t ~from:(cf : Check.t) ~to_:(cg : Check.t) =
  let f = family_of_check t cf and g = family_of_check t cg in
  add_edge t ~from:f ~to_:g ~weight:(Check.constant cg - Check.constant cf)

(* Floyd–Warshall over the (small) family graph. Negative cycles would
   mean the recorded implications are contradictory; we saturate at the
   iteration bound instead of looping, which can only make strength
   queries more conservative. *)
let rebuild_closure t =
  let n = t.nfam in
  let m = Array.make_matrix n n None in
  for i = 0 to n - 1 do
    m.(i).(i) <- Some 0
  done;
  Hashtbl.iter
    (fun (f, g) w ->
      match m.(f).(g) with
      | Some w0 when w0 <= w -> ()
      | _ -> m.(f).(g) <- Some w)
    t.edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      match m.(i).(k) with
      | None -> ()
      | Some wik ->
          for j = 0 to n - 1 do
            match m.(k).(j) with
            | None -> ()
            | Some wkj -> (
                let w = wik + wkj in
                match m.(i).(j) with
                | Some w0 when w0 <= w -> ()
                | _ -> m.(i).(j) <- Some w)
          done
    done
  done;
  t.closure <- m;
  t.closure_valid <- true

(* Shortest implication-path weight from family [f] to family [g];
   [Some 0] when [f = g]. *)
let path_weight t f g =
  if f = g then Some 0
  else begin
    if not t.closure_valid then rebuild_closure t;
    if f < Array.length t.closure && g < Array.length t.closure then t.closure.(f).(g)
    else None
  end

(* Is check [(f, cf)] as strong as check [(g, cg)]? (Hot loops call
   {!path_weight} directly rather than build the pairs.) *)
let as_strong_as t ~strong:(f, cf) ~weak:(g, cg) =
  match path_weight t f g with Some w -> cf + w <= cg | None -> false
