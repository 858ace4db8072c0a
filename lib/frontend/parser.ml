(* Recursive-descent parser for MiniF.

   The grammar is LL(2); the only places needing a second token of
   lookahead are distinguishing `x = e` from `a(i) = e` statements. *)

exception Error of string * Srcloc.pos

type t = { lx : Lexer.tokens; mutable cur : int }

let make src = { lx = Lexer.tokens src; cur = 0 }

let peek p = Lexer.token p.lx p.cur
let peek_pos p = Lexer.pos_of p.lx p.cur
let peek2 p = if p.cur + 1 < Lexer.count p.lx then Lexer.token p.lx (p.cur + 1) else Token.EOF
let advance p = if p.cur < Lexer.count p.lx - 1 then p.cur <- p.cur + 1

(* Is the current token [tok]? Only payload-free tokens are asked for,
   so physical equality is constructor equality, with no call into the
   polymorphic comparison. *)
let at p (tok : Token.t) = peek p == tok

let error p msg = raise (Error (msg, peek_pos p))

let expect p tok =
  if at p tok then advance p
  else
    error p
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (peek p)))

let expect_ident p =
  match peek p with
  | Token.IDENT s ->
      advance p;
      s
  | t -> error p (Printf.sprintf "expected identifier but found %s" (Token.to_string t))

let loc_here p : Srcloc.t =
  let pos = peek_pos p in
  Srcloc.make ~start:pos ~stop:pos

(* --- expressions ---------------------------------------------------- *)

let mk desc loc : Ast.expr = { desc; loc }

let rec parse_expr p = parse_or p

and parse_or p =
  let lhs = parse_and p in
  let rec go lhs =
    match peek p with
    | Token.KW_OR ->
        let loc = loc_here p in
        advance p;
        let rhs = parse_and p in
        go (mk (Ast.Binary (Ast.Or, lhs, rhs)) loc)
    | _ -> lhs
  in
  go lhs

and parse_and p =
  let lhs = parse_not p in
  let rec go lhs =
    match peek p with
    | Token.KW_AND ->
        let loc = loc_here p in
        advance p;
        let rhs = parse_not p in
        go (mk (Ast.Binary (Ast.And, lhs, rhs)) loc)
    | _ -> lhs
  in
  go lhs

and parse_not p =
  match peek p with
  | Token.KW_NOT ->
      let loc = loc_here p in
      advance p;
      let e = parse_not p in
      mk (Ast.Unary (Ast.Not, e)) loc
  | _ -> parse_rel p

and parse_rel p =
  let lhs = parse_addsub p in
  let op =
    match peek p with
    | Token.EQ -> Some Ast.Eq
    | Token.NE -> Some Ast.Ne
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      let loc = loc_here p in
      advance p;
      let rhs = parse_addsub p in
      mk (Ast.Binary (op, lhs, rhs)) loc

and parse_addsub p =
  let lhs = parse_muldiv p in
  let rec go lhs =
    match peek p with
    | Token.PLUS ->
        let loc = loc_here p in
        advance p;
        go (mk (Ast.Binary (Ast.Add, lhs, parse_muldiv p)) loc)
    | Token.MINUS ->
        let loc = loc_here p in
        advance p;
        go (mk (Ast.Binary (Ast.Sub, lhs, parse_muldiv p)) loc)
    | _ -> lhs
  in
  go lhs

and parse_muldiv p =
  let lhs = parse_unary p in
  let rec go lhs =
    match peek p with
    | Token.STAR ->
        let loc = loc_here p in
        advance p;
        go (mk (Ast.Binary (Ast.Mul, lhs, parse_unary p)) loc)
    | Token.SLASH ->
        let loc = loc_here p in
        advance p;
        go (mk (Ast.Binary (Ast.Div, lhs, parse_unary p)) loc)
    | _ -> lhs
  in
  go lhs

and parse_unary p =
  match peek p with
  | Token.MINUS ->
      let loc = loc_here p in
      advance p;
      mk (Ast.Unary (Ast.Neg, parse_unary p)) loc
  | _ -> parse_primary p

and parse_primary p =
  let loc = loc_here p in
  match peek p with
  | Token.INT n ->
      advance p;
      mk (Ast.Int n) loc
  | Token.REAL f ->
      advance p;
      mk (Ast.Real f) loc
  | Token.KW_TRUE ->
      advance p;
      mk (Ast.Bool true) loc
  | Token.KW_FALSE ->
      advance p;
      mk (Ast.Bool false) loc
  | Token.LPAREN ->
      advance p;
      let e = parse_expr p in
      expect p Token.RPAREN;
      e
  | Token.IDENT name -> (
      advance p;
      match peek p with
      | Token.LPAREN -> (
          advance p;
          let args = parse_expr_list p in
          expect p Token.RPAREN;
          match Ast.intrinsic_of_string name with
          | Some i -> mk (Ast.Intrinsic (i, args)) loc
          | None -> mk (Ast.Index (name, args)) loc)
      | _ -> mk (Ast.Var name) loc)
  | t -> error p (Printf.sprintf "expected expression but found %s" (Token.to_string t))

and parse_expr_list p =
  let e = parse_expr p in
  match peek p with
  | Token.COMMA ->
      advance p;
      e :: parse_expr_list p
  | _ -> [ e ]

(* --- declarations --------------------------------------------------- *)

let parse_dim p : Ast.dim =
  let e1 = parse_expr p in
  match peek p with
  | Token.COLON ->
      advance p;
      let e2 = parse_expr p in
      { dlo = Some e1; dhi = e2 }
  | _ -> { dlo = None; dhi = e1 }

let parse_declarator p ty : Ast.decl =
  let dloc = loc_here p in
  let name = expect_ident p in
  let ddims =
    match peek p with
    | Token.LPAREN ->
        advance p;
        let rec dims () =
          let d = parse_dim p in
          match peek p with
          | Token.COMMA ->
              advance p;
              d :: dims ()
          | _ -> [ d ]
        in
        let ds = dims () in
        expect p Token.RPAREN;
        ds
    | _ -> []
  in
  { Ast.dname = name; dty = ty; ddims; dloc }

let rec parse_decls p acc =
  match peek p with
  | Token.KW_INTEGER | Token.KW_REAL ->
      let ty = if at p Token.KW_INTEGER then Ast.TInt else Ast.TReal in
      advance p;
      let rec declarators acc =
        let d = parse_declarator p ty in
        match peek p with
        | Token.COMMA ->
            advance p;
            declarators (d :: acc)
        | _ -> d :: acc
      in
      parse_decls p (declarators acc)
  | _ -> List.rev acc

(* --- statements ----------------------------------------------------- *)

let rec parse_stmts p =
  match peek p with
  | Token.IDENT _ | Token.KW_IF | Token.KW_DO | Token.KW_WHILE | Token.KW_CALL
  | Token.KW_PRINT | Token.KW_RETURN ->
      let s = parse_stmt p in
      s :: parse_stmts p
  | _ -> []

and parse_stmt p : Ast.stmt =
  let sloc = loc_here p in
  match peek p with
  | Token.IDENT name -> (
      match peek2 p with
      | Token.EQ ->
          advance p;
          advance p;
          let e = parse_expr p in
          { Ast.sdesc = Ast.Assign (name, e); sloc }
      | Token.LPAREN ->
          advance p;
          advance p;
          let idxs = parse_expr_list p in
          expect p Token.RPAREN;
          expect p Token.EQ;
          let e = parse_expr p in
          { Ast.sdesc = Ast.Store (name, idxs, e); sloc }
      | t ->
          error p
            (Printf.sprintf "expected = or ( after identifier, found %s"
               (Token.to_string t)))
  | Token.KW_IF ->
      advance p;
      let cond = parse_expr p in
      expect p Token.KW_THEN;
      let then_ = parse_stmts p in
      let else_ =
        match peek p with
        | Token.KW_ELSE ->
            advance p;
            parse_stmts p
        | _ -> []
      in
      expect p Token.KW_ENDIF;
      { Ast.sdesc = Ast.If (cond, then_, else_); sloc }
  | Token.KW_DO ->
      advance p;
      let index = expect_ident p in
      expect p Token.EQ;
      let lo = parse_expr p in
      expect p Token.COMMA;
      let hi = parse_expr p in
      let step =
        match peek p with
        | Token.COMMA ->
            advance p;
            Some (parse_expr p)
        | _ -> None
      in
      let body = parse_stmts p in
      expect p Token.KW_ENDDO;
      { Ast.sdesc = Ast.Do { index; lo; hi; step; body }; sloc }
  | Token.KW_WHILE ->
      advance p;
      let cond = parse_expr p in
      expect p Token.KW_DO;
      let body = parse_stmts p in
      expect p Token.KW_ENDWHILE;
      { Ast.sdesc = Ast.While (cond, body); sloc }
  | Token.KW_CALL ->
      advance p;
      let name = expect_ident p in
      let args =
        match peek p with
        | Token.LPAREN ->
            advance p;
            let args =
              match peek p with
              | Token.RPAREN -> []
              | _ -> parse_expr_list p
            in
            expect p Token.RPAREN;
            args
        | _ -> []
      in
      { Ast.sdesc = Ast.Call (name, args); sloc }
  | Token.KW_PRINT ->
      advance p;
      let e = parse_expr p in
      { Ast.sdesc = Ast.Print e; sloc }
  | Token.KW_RETURN ->
      advance p;
      { Ast.sdesc = Ast.Return; sloc }
  | t -> error p (Printf.sprintf "expected statement but found %s" (Token.to_string t))

(* --- compilation units ---------------------------------------------- *)

let parse_unit p : Ast.comp_unit =
  let uloc = loc_here p in
  match peek p with
  | Token.KW_PROGRAM ->
      advance p;
      let uname = expect_ident p in
      let udecls = parse_decls p [] in
      let ubody = parse_stmts p in
      expect p Token.KW_END;
      { Ast.uname; ukind = Ast.Main; udecls; ubody; uloc }
  | Token.KW_SUBROUTINE ->
      advance p;
      let uname = expect_ident p in
      let params =
        match peek p with
        | Token.LPAREN ->
            advance p;
            let rec go () =
              match peek p with
              | Token.RPAREN -> []
              | _ ->
                  let id = expect_ident p in
                  if at p Token.COMMA then begin
                    advance p;
                    id :: go ()
                  end
                  else [ id ]
            in
            let ps = go () in
            expect p Token.RPAREN;
            ps
        | _ -> []
      in
      let udecls = parse_decls p [] in
      let ubody = parse_stmts p in
      expect p Token.KW_END;
      { Ast.uname; ukind = Ast.Subroutine params; udecls; ubody; uloc }
  | t ->
      error p
        (Printf.sprintf "expected program or subroutine, found %s" (Token.to_string t))

let parse_program src : Ast.program =
  let p = make src in
  let rec units acc =
    match peek p with
    | Token.EOF -> List.rev acc
    | _ -> units (parse_unit p :: acc)
  in
  { Ast.units = units [] }
