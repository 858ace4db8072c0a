(* AST -> IR lowering with naive range-check insertion.

   Every array access gets a lower and an upper canonical check per
   dimension, emitted immediately before the access (this is the
   "unoptimized range checking" measured in Table 1). Loop bounds of
   counted [do] loops are captured in entry... no: in fresh temps at the
   loop preheader, matching Fortran's once-only trip evaluation and
   making them loop-invariant by construction.

   Every loop (do and while) is lowered with an explicit preheader
   block, the insertion point of the LI/LLS schemes. *)

module Sema = Nascent_frontend.Sema
module Ast = Nascent_frontend.Ast
open Types

exception Lower_error of string

type ctx = {
  func : Func.t;
  scalars : (string, var) Hashtbl.t;
  arrays : (string, arr) Hashtbl.t;
  mutable cur : block; (* block under construction *)
  mutable pending : instr list; (* [cur]'s instructions not yet stored, newest first *)
  mutable next_arr_id : int;
  mutable temp_count : int;
}

(* Instructions are collected newest-first and stored in the block
   once, when lowering moves on to another block: appending each to the
   block's list would copy the list on every instruction. *)
let emit ctx i = ctx.pending <- i :: ctx.pending

let flush ctx =
  if ctx.pending <> [] then begin
    ctx.cur.instrs <- ctx.cur.instrs @ List.rev ctx.pending;
    ctx.pending <- []
  end

let switch ctx b =
  flush ctx;
  ctx.cur <- b

let set_term ctx t = ctx.cur.term <- t

let ty_of_ast : Ast.ty -> ty = function Ast.TInt -> Int | Ast.TReal -> Real

let fresh_temp ctx ~hint ~ty =
  ctx.temp_count <- ctx.temp_count + 1;
  Func.fresh_var ctx.func ~name:(Printf.sprintf "%s$%d" hint ctx.temp_count) ~ty

let scalar ctx name =
  match Hashtbl.find_opt ctx.scalars name with
  | Some v -> v
  | None -> raise (Lower_error ("unknown scalar " ^ name))

let array ctx name =
  match Hashtbl.find_opt ctx.arrays name with
  | Some a -> a
  | None -> raise (Lower_error ("unknown array " ^ name))

let binop_of_ast : Ast.binop -> binop = function
  | Ast.Add -> Add
  | Ast.Sub -> Sub
  | Ast.Mul -> Mul
  | Ast.Div -> Div
  | Ast.Eq -> Eq
  | Ast.Ne -> Ne
  | Ast.Lt -> Lt
  | Ast.Le -> Le
  | Ast.Gt -> Gt
  | Ast.Ge -> Ge
  | Ast.And -> And
  | Ast.Or -> Or

(* Lower an expression, emitting the range checks of every array read
   it contains into the current block (checks precede the access). *)
let rec lower_expr ctx (e : Ast.expr) : expr =
  match e.desc with
  | Ast.Int n -> Cint n
  | Ast.Real f -> Creal f
  | Ast.Bool b -> Cbool b
  | Ast.Var v -> Evar (scalar ctx v)
  | Ast.Index (aname, idxs) ->
      let a = array ctx aname in
      let idxs = List.map (lower_expr ctx) idxs in
      emit_subscript_checks ctx a idxs;
      Eload (a, idxs)
  | Ast.Unary (Ast.Neg, a) -> Eun (Neg, lower_expr ctx a)
  | Ast.Unary (Ast.Not, a) -> Eun (Not, lower_expr ctx a)
  | Ast.Binary (op, a, b) ->
      let a = lower_expr ctx a in
      let b = lower_expr ctx b in
      Ebin (binop_of_ast op, a, b)
  | Ast.Intrinsic (i, args) -> (
      let args = List.map (lower_expr ctx) args in
      match (i, args) with
      | Ast.Imod, [ a; b ] -> Ebin (Mod, a, b)
      | Ast.Imin, [ a; b ] -> Ebin (Min, a, b)
      | Ast.Imax, [ a; b ] -> Ebin (Max, a, b)
      | Ast.Iabs, [ a ] -> Eun (Abs, a)
      | _ -> raise (Lower_error "bad intrinsic arity"))

and emit_subscript_checks ctx (a : arr) (idxs : expr list) =
  List.iteri
    (fun dim sub ->
      List.iter
        (fun m -> emit ctx (Check m))
        (Canon.checks_for_subscript ctx.func.Func.atoms a ~dim ~sub))
    idxs

(* Lower an expression that must be loop-invariant-capturable: constants
   stay as constants (so compile-time check evaluation sees them);
   anything else is evaluated once into a fresh temp. *)
let capture ctx ~hint (e : Ast.expr) : expr =
  match Expr.fold (lower_expr ctx e) with
  | Cint n -> Cint n
  | ir ->
      let t = fresh_temp ctx ~hint ~ty:Int in
      emit ctx (Assign (t, ir));
      Evar t

let const_step (e : Ast.expr option) : int =
  match e with
  | None -> 1
  | Some { desc = Ast.Int n; _ } when n <> 0 -> n
  | Some { desc = Ast.Unary (Ast.Neg, { desc = Ast.Int n; _ }); _ } when n <> 0 -> -n
  | Some _ -> raise (Lower_error "do step must be a nonzero integer literal")

let rec lower_stmts ctx (stmts : Ast.stmt list) =
  List.iter (lower_stmt ctx) stmts

and lower_stmt ctx (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Assign (v, e) ->
      let ir = lower_expr ctx e in
      emit ctx (Assign (scalar ctx v, ir))
  | Ast.Store (aname, idxs, e) ->
      let a = array ctx aname in
      let idxs = List.map (lower_expr ctx) idxs in
      let ir = lower_expr ctx e in
      emit_subscript_checks ctx a idxs;
      emit ctx (Store (a, idxs, ir))
  | Ast.If (c, then_, else_) ->
      let cond = lower_expr ctx c in
      let bthen = Func.new_block ctx.func in
      let belse = Func.new_block ctx.func in
      let bjoin = Func.new_block ctx.func in
      set_term ctx (Branch (cond, bthen.bid, belse.bid));
      switch ctx bthen;
      lower_stmts ctx then_;
      set_term ctx (Goto bjoin.bid);
      switch ctx belse;
      lower_stmts ctx else_;
      set_term ctx (Goto bjoin.bid);
      switch ctx bjoin
  | Ast.Do { index; lo; hi; step; body } ->
      let iv = scalar ctx index in
      let step = const_step step in
      (* Preheader: evaluate the bounds once, initialize the index. *)
      let pre = Func.new_block ctx.func in
      set_term ctx (Goto pre.bid);
      switch ctx pre;
      let lo_e = capture ctx ~hint:(index ^ "$lo") lo in
      let hi_e = capture ctx ~hint:(index ^ "$hi") hi in
      emit ctx (Assign (iv, lo_e));
      let header = Func.new_block ctx.func in
      let bodyb = Func.new_block ctx.func in
      let latch = Func.new_block ctx.func in
      let exit = Func.new_block ctx.func in
      set_term ctx (Goto header.bid);
      let test = if step > 0 then Ebin (Le, Evar iv, hi_e) else Ebin (Ge, Evar iv, hi_e) in
      header.term <- Branch (test, bodyb.bid, exit.bid);
      switch ctx bodyb;
      lower_stmts ctx body;
      set_term ctx (Goto latch.bid);
      latch.instrs <- [ Assign (iv, Ebin (Add, Evar iv, Cint step)) ];
      latch.term <- Goto header.bid;
      ctx.func.Func.loops <-
        Ldo
          {
            d_preheader = pre.bid;
            d_header = header.bid;
            d_body_entry = bodyb.bid;
            d_latch = latch.bid;
            d_exit = exit.bid;
            d_index = iv;
            d_lo = lo_e;
            d_hi = hi_e;
            d_step = step;
            d_basic = None;
          }
        :: ctx.func.Func.loops;
      switch ctx exit
  | Ast.While (c, body) ->
      let pre = Func.new_block ctx.func in
      set_term ctx (Goto pre.bid);
      let header = Func.new_block ctx.func in
      let bodyb = Func.new_block ctx.func in
      let exit = Func.new_block ctx.func in
      pre.term <- Goto header.bid;
      (* The condition is lowered into the header (checks of any array
         reads it contains are re-executed per iteration, as in source). *)
      switch ctx header;
      let cond = lower_expr ctx c in
      set_term ctx (Branch (cond, bodyb.bid, exit.bid));
      switch ctx bodyb;
      lower_stmts ctx body;
      set_term ctx (Goto header.bid);
      ctx.func.Func.loops <-
        Lwhile
          {
            w_preheader = pre.bid;
            w_header = header.bid;
            w_body_entry = bodyb.bid;
            w_exit = exit.bid;
            w_cond = cond;
          }
        :: ctx.func.Func.loops;
      switch ctx exit
  | Ast.Call (name, args) ->
      let args =
        List.map
          (fun (a : Ast.expr) ->
            match a.desc with
            | Ast.Var v when Hashtbl.mem ctx.arrays v -> Aarr (array ctx v)
            | _ -> Aexpr (lower_expr ctx a))
          args
      in
      emit ctx (Call (name, args))
  | Ast.Print e ->
      let ir = lower_expr ctx e in
      emit ctx (Print ir)
  | Ast.Return -> begin
      set_term ctx Ret;
      (* Statements after return are unreachable; park them in a fresh
         dead block to keep lowering simple. *)
      switch ctx (Func.new_block ctx.func)
    end

(* Lower one compilation unit. *)
let lower_unit (uenv : Sema.unit_env) : Func.t =
  let u = uenv.Sema.unit_ast in
  (* Pass 1: scalars (params included), so array bounds can reference
     them. *)
  let scalars = Hashtbl.create 16 in
  let arrays = Hashtbl.create 8 in
  let param_names = uenv.Sema.params in
  let func = Func.create ~name:u.Ast.uname ~params:[] in
  List.iter
    (fun (d : Ast.decl) ->
      if d.ddims = [] then
        Hashtbl.replace scalars d.dname
          (Func.fresh_var func ~name:d.dname ~ty:(ty_of_ast d.dty)))
    u.udecls;
  let entry = Func.new_block func in
  func.Func.entry <- entry.bid;
  let ctx =
    { func; scalars; arrays; cur = entry; pending = []; next_arr_id = 0; temp_count = 0 }
  in
  (* Pass 2: arrays; symbolic bounds are captured in entry temps.
     Temps are hash-consed by the (folded) bound expression, so arrays
     declared with the same symbolic extent share one temp — and hence
     their checks share one canonical family, which the redundancy
     analyses rely on (as Nascent's canonicalization against the
     original bound symbol would). *)
  let bound_cache : (expr * bound) list ref = ref [] in
  List.iter
    (fun (d : Ast.decl) ->
      if d.ddims <> [] then begin
        let adims =
          List.map
            (fun { Ast.dlo; dhi } ->
              let lower_bound (e : Ast.expr option) ~default ~hint =
                match e with
                | None -> Bconst default
                | Some e -> (
                    match Expr.fold (lower_expr ctx e) with
                    | Cint n -> Bconst n
                    | ir -> (
                        match
                          List.find_opt (fun (e', _) -> Expr.equal ir e') !bound_cache
                        with
                        | Some (_, b) -> b
                        | None ->
                            let t = fresh_temp ctx ~hint ~ty:Int in
                            emit ctx (Assign (t, ir));
                            bound_cache := (ir, Bvar t) :: !bound_cache;
                            Bvar t))
              in
              let lo = lower_bound dlo ~default:1 ~hint:(d.dname ^ "$lo") in
              let hi = lower_bound (Some dhi) ~default:1 ~hint:(d.dname ^ "$hi") in
              (lo, hi))
            d.ddims
        in
        let a =
          { aname = d.dname; aid = ctx.next_arr_id; aty = ty_of_ast d.dty; adims }
        in
        ctx.next_arr_id <- ctx.next_arr_id + 1;
        Hashtbl.replace arrays d.dname a;
        Func.add_array func a
      end)
    u.udecls;
  (* Parameters, in declaration order. *)
  let params =
    List.map
      (fun pname ->
        match Hashtbl.find_opt scalars pname with
        | Some v -> Pscalar v
        | None -> Parr (array ctx pname))
      param_names
  in
  func.Func.params <- params;
  lower_stmts ctx u.ubody;
  set_term ctx Ret;
  flush ctx;
  func

let lower_program (env : Sema.env) : Program.t =
  let prog = Program.create ~main:env.Sema.main in
  Hashtbl.iter (fun _ uenv -> Program.add prog (lower_unit uenv)) env.Sema.units;
  prog

(* Convenience: source text to naive-checked IR. *)
let of_source src : Program.t =
  let _, env = Nascent_frontend.Frontend.analyze_exn src in
  lower_program env
