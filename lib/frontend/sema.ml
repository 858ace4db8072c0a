(* Semantic analysis for MiniF: symbol tables and type checking.

   Scalars are passed to subroutines by value and arrays by reference —
   a deliberate simplification of Fortran's uniform by-reference rule
   that keeps scalar data flow alias-free (a `call` never silently
   redefines a caller scalar), which the check data-flow analyses rely
   on. Array contents never appear in range expressions, so aliasing of
   arrays is harmless. *)

type sym_ty = Ast.ty

type sym =
  | Scalar of sym_ty
  | Array of sym_ty * Ast.dim list (* one dim record per dimension *)

type unit_env = {
  syms : (string, sym) Hashtbl.t;
  params : string list; (* in declaration order; [] for main *)
  unit_ast : Ast.comp_unit;
}

type env = {
  units : (string, unit_env) Hashtbl.t;
  main : string; (* name of the main program unit *)
}

type error = { msg : string; at : Srcloc.t }

let err loc fmt = Format.kasprintf (fun msg -> { msg; at = loc }) fmt

(* Expression types: numeric kinds plus booleans from comparisons. *)
type ety = EInt | EReal | EBool

let ety_of_symty : sym_ty -> ety = function Ast.TInt -> EInt | Ast.TReal -> EReal

let pp_ety ppf = function
  | EInt -> Fmt.string ppf "integer"
  | EReal -> Fmt.string ppf "real"
  | EBool -> Fmt.string ppf "logical"

let find_sym uenv name = Hashtbl.find_opt uenv.syms name

(* Type of an expression; records errors in [errs]. Returns a best-guess
   type on error so checking continues. *)
let rec type_expr uenv errs (e : Ast.expr) : ety =
  match e.desc with
  | Ast.Int _ -> EInt
  | Ast.Real _ -> EReal
  | Ast.Bool _ -> EBool
  | Ast.Var v -> (
      match find_sym uenv v with
      | Some (Scalar ty) -> ety_of_symty ty
      | Some (Array _) ->
          errs := err e.loc "array %s used without subscripts" v :: !errs;
          EInt
      | None ->
          errs := err e.loc "undeclared variable %s" v :: !errs;
          EInt)
  | Ast.Index (a, idxs) -> (
      match find_sym uenv a with
      | Some (Array (ty, dims)) ->
          if List.length idxs <> List.length dims then
            errs :=
              err e.loc "array %s has %d dimension(s) but %d subscript(s) given" a
                (List.length dims) (List.length idxs)
              :: !errs;
          List.iter
            (fun idx ->
              match type_expr uenv errs idx with
              | EInt -> ()
              | t ->
                  errs :=
                    err idx.Ast.loc "subscript of %s must be integer, found %s" a
                      (Fmt.str "%a" pp_ety t)
                    :: !errs)
            idxs;
          ety_of_symty ty
      | Some (Scalar _) ->
          errs := err e.loc "%s is a scalar, not an array" a :: !errs;
          EInt
      | None ->
          errs := err e.loc "undeclared array %s" a :: !errs;
          EInt)
  | Ast.Unary (Ast.Neg, a) -> (
      match type_expr uenv errs a with
      | (EInt | EReal) as t -> t
      | EBool ->
          errs := err e.loc "cannot negate a logical value" :: !errs;
          EInt)
  | Ast.Unary (Ast.Not, a) ->
      (match type_expr uenv errs a with
      | EBool -> ()
      | t -> errs := err e.loc "not requires a logical operand, found %s" (Fmt.str "%a" pp_ety t) :: !errs);
      EBool
  | Ast.Binary (op, a, b) -> (
      let ta = type_expr uenv errs a in
      let tb = type_expr uenv errs b in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> (
          match (ta, tb) with
          | EInt, EInt -> EInt
          | (EInt | EReal), (EInt | EReal) -> EReal
          | _ ->
              errs := err e.loc "arithmetic on logical values" :: !errs;
              EInt)
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          (match (ta, tb) with
          | (EInt | EReal), (EInt | EReal) -> ()
          | _ -> errs := err e.loc "comparison of logical values" :: !errs);
          EBool
      | Ast.And | Ast.Or ->
          (match (ta, tb) with
          | EBool, EBool -> ()
          | _ -> errs := err e.loc "and/or require logical operands" :: !errs);
          EBool)
  | Ast.Intrinsic (i, args) -> (
      let tys = List.map (type_expr uenv errs) args in
      let arity =
        match i with Ast.Imod | Ast.Imin | Ast.Imax -> 2 | Ast.Iabs -> 1
      in
      if List.length args <> arity then
        errs :=
          err e.loc "%s expects %d argument(s), got %d" (Ast.intrinsic_name i) arity
            (List.length args)
          :: !errs;
      if List.exists (fun t -> t = EBool) tys then
        errs := err e.loc "%s requires numeric arguments" (Ast.intrinsic_name i) :: !errs;
      match i with
      | Ast.Imod -> EInt (* integer mod only *)
      | Ast.Imin | Ast.Imax | Ast.Iabs ->
          if List.exists (fun t -> t = EReal) tys then EReal else EInt)

let expect_ety uenv errs expected (e : Ast.expr) what =
  let t = type_expr uenv errs e in
  if t <> expected && not (expected = EReal && t = EInt) then
    errs :=
      err e.loc "%s must be %s, found %s" what
        (Fmt.str "%a" pp_ety expected)
        (Fmt.str "%a" pp_ety t)
      :: !errs

(* [active] holds the do-indices of the enclosing loops: Fortran
   forbids assigning a do variable inside its loop (and reusing it as a
   nested do index) — the assumption behind loop-limit substitution. *)
let rec check_stmt env uenv ?(active = []) errs (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Assign (v, e) -> (
      if List.mem v active then
        errs := err s.sloc "cannot assign to active do index %s" v :: !errs;
      match find_sym uenv v with
      | Some (Scalar ty) ->
          let te = type_expr uenv errs e in
          let tv = ety_of_symty ty in
          if te = EBool then
            errs := err s.sloc "cannot assign a logical value to %s" v :: !errs
          else if tv = EInt && te = EReal then
            errs := err s.sloc "cannot assign real expression to integer %s" v :: !errs
      | Some (Array _) ->
          errs := err s.sloc "assignment to array %s without subscripts" v :: !errs
      | None -> errs := err s.sloc "undeclared variable %s" v :: !errs)
  | Ast.Store (a, idxs, e) -> (
      (* Reuse Index checking for the subscripts and dimensionality. *)
      let fake = { Ast.desc = Ast.Index (a, idxs); loc = s.sloc } in
      let ta = type_expr uenv errs fake in
      let te = type_expr uenv errs e in
      match (ta, te) with
      | _, EBool -> errs := err s.sloc "cannot store a logical value" :: !errs
      | EInt, EReal ->
          errs := err s.sloc "cannot store real expression into integer array %s" a :: !errs
      | _ -> ())
  | Ast.If (c, t, f) ->
      expect_ety uenv errs EBool c "if condition";
      List.iter (check_stmt env uenv ~active errs) t;
      List.iter (check_stmt env uenv ~active errs) f
  | Ast.Do { index; lo; hi; step; body } ->
      (match find_sym uenv index with
      | Some (Scalar Ast.TInt) -> ()
      | Some _ -> errs := err s.sloc "do index %s must be an integer scalar" index :: !errs
      | None -> errs := err s.sloc "undeclared do index %s" index :: !errs);
      if List.mem index active then
        errs := err s.sloc "do index %s is already active in an enclosing loop" index :: !errs;
      expect_ety uenv errs EInt lo "do lower bound";
      expect_ety uenv errs EInt hi "do upper bound";
      Option.iter (fun e -> expect_ety uenv errs EInt e "do step") step;
      List.iter (check_stmt env uenv ~active:(index :: active) errs) body
  | Ast.While (c, body) ->
      expect_ety uenv errs EBool c "while condition";
      List.iter (check_stmt env uenv ~active errs) body
  | Ast.Call (name, args) -> (
      match Hashtbl.find_opt env.units name with
      | None -> errs := err s.sloc "call to undeclared subroutine %s" name :: !errs
      | Some callee ->
          let nparams = List.length callee.params in
          if List.length args <> nparams then
            errs :=
              err s.sloc "subroutine %s expects %d argument(s), got %d" name nparams
                (List.length args)
              :: !errs
          else
            List.iter2
              (fun (arg : Ast.expr) pname ->
                match Hashtbl.find_opt callee.syms pname with
                | Some (Array (pty, pdims)) -> (
                    (* Array parameters: argument must be a bare array
                       name of the same element type and rank. *)
                    match arg.desc with
                    | Ast.Var aname -> (
                        match find_sym uenv aname with
                        | Some (Array (aty, adims)) ->
                            if aty <> pty then
                              errs :=
                                err arg.loc "array argument %s element type mismatch" aname
                                :: !errs;
                            if List.length adims <> List.length pdims then
                              errs :=
                                err arg.loc "array argument %s rank mismatch" aname :: !errs
                        | _ ->
                            errs :=
                              err arg.loc "argument for array parameter %s must be an array"
                                pname
                              :: !errs)
                    | _ ->
                        errs :=
                          err arg.loc "argument for array parameter %s must be an array name"
                            pname
                          :: !errs)
                | Some (Scalar ty) -> (
                    let ta = type_expr uenv errs arg in
                    match (ety_of_symty ty, ta) with
                    | _, EBool ->
                        errs := err arg.loc "cannot pass a logical value" :: !errs
                    | EInt, EReal ->
                        errs :=
                          err arg.loc "cannot pass real argument for integer parameter %s"
                            pname
                          :: !errs
                    | _ -> ())
                | None ->
                    errs :=
                      err s.sloc "subroutine %s does not declare parameter %s" name pname
                      :: !errs)
              args callee.params)
  | Ast.Print e ->
      let t = type_expr uenv errs e in
      ignore t
  | Ast.Return -> ()

(* Dimension bound expressions may only reference integer scalars
   (typically parameters) and constants. *)
let check_dims uenv errs (d : Ast.decl) =
  List.iter
    (fun { Ast.dlo; dhi } ->
      Option.iter (fun e -> expect_ety uenv errs EInt e "array bound") dlo;
      expect_ety uenv errs EInt dhi "array bound")
    d.ddims

let build_unit_env errs (u : Ast.comp_unit) : unit_env =
  let syms = Hashtbl.create 16 in
  List.iter
    (fun (d : Ast.decl) ->
      if Hashtbl.mem syms d.dname then
        errs := err d.dloc "duplicate declaration of %s" d.dname :: !errs
      else if Ast.intrinsic_of_string d.dname <> None then
        errs := err d.dloc "%s is a reserved intrinsic name" d.dname :: !errs
      else
        Hashtbl.replace syms d.dname
          (if d.ddims = [] then Scalar d.dty else Array (d.dty, d.ddims)))
    u.udecls;
  let params = match u.ukind with Ast.Main -> [] | Ast.Subroutine ps -> ps in
  List.iter
    (fun pname ->
      if not (Hashtbl.mem syms pname) then
        errs := err u.uloc "parameter %s of %s has no type declaration" pname u.uname :: !errs)
    params;
  { syms; params; unit_ast = u }

let check (prog : Ast.program) : (env, error list) result =
  let errs = ref [] in
  let units = Hashtbl.create 8 in
  let mains = ref [] in
  List.iter
    (fun (u : Ast.comp_unit) ->
      if Hashtbl.mem units u.uname then
        errs := err u.uloc "duplicate unit name %s" u.uname :: !errs;
      let uenv = build_unit_env errs u in
      Hashtbl.replace units u.uname uenv;
      if u.ukind = Ast.Main then mains := u.uname :: !mains)
    prog.units;
  let main =
    match !mains with
    | [ m ] -> m
    | [] ->
        errs := err Srcloc.dummy "no main program unit" :: !errs;
        ""
    | m :: _ ->
        errs := err Srcloc.dummy "multiple main program units" :: !errs;
        m
  in
  let env = { units; main } in
  Hashtbl.iter
    (fun _ uenv ->
      List.iter (check_dims uenv errs) uenv.unit_ast.udecls;
      List.iter (check_stmt env uenv errs) uenv.unit_ast.ubody)
    units;
  if !errs = [] then Ok env else Error (List.rev !errs)

let pp_error ppf { msg; at } = Fmt.pf ppf "%a: %s" Srcloc.pp at msg
