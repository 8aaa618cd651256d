module Value = Vnl_relation.Value
open Ast

exception Parse_error of string

type cursor = { mutable tokens : Lexer.token list }

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let peek c = match c.tokens with [] -> Lexer.EOF | t :: _ -> t

let advance c = match c.tokens with [] -> () | _ :: rest -> c.tokens <- rest

let next c =
  let t = peek c in
  advance c;
  t

let describe t = Format.asprintf "%a" Lexer.pp_token t

let expect_symbol c s =
  match next c with
  | Lexer.SYMBOL x when x = s -> ()
  | t -> fail "expected %S, found %s" s (describe t)

let expect_keyword c k =
  match next c with
  | Lexer.KEYWORD x when x = k -> ()
  | t -> fail "expected %s, found %s" k (describe t)

let accept_symbol c s =
  match peek c with
  | Lexer.SYMBOL x when x = s ->
    advance c;
    true
  | _ -> false

let accept_keyword c k =
  match peek c with
  | Lexer.KEYWORD x when x = k ->
    advance c;
    true
  | _ -> false

let ident c =
  match next c with
  | Lexer.IDENT name -> name
  (* DATE doubles as a column name (the paper's DailySales has a "date"
     attribute); accept it wherever an identifier is required. *)
  | Lexer.KEYWORD "DATE" -> "date"
  | t -> fail "expected identifier, found %s" (describe t)

let parse_date body =
  let split sep s = String.split_on_char sep s in
  let as_ints parts = List.map int_of_string parts in
  match
    if String.contains body '/' then
      match as_ints (split '/' body) with
      | [ m; d; y ] -> Some (Value.date_of_mdy m d y)
      | _ -> None
    else
      match as_ints (split '-' body) with
      | [ y; m; d ] -> Some (Value.date_of_mdy m d y)
      | _ -> None
  with
  | Some v -> v
  | None | (exception Failure _) -> fail "malformed date literal %S" body

(* Expression grammar, lowest precedence first. *)
let rec expr c = or_expr c

and or_expr c =
  let rec loop left =
    if accept_keyword c "OR" then loop (Binop (Or, left, and_expr c)) else left
  in
  loop (and_expr c)

and and_expr c =
  let rec loop left =
    if accept_keyword c "AND" then loop (Binop (And, left, not_expr c)) else left
  in
  loop (not_expr c)

and not_expr c = if accept_keyword c "NOT" then Unop (Not, not_expr c) else comparison c

and comparison c =
  let left = additive c in
  let in_suffix left =
    expect_symbol c "(";
    let rec loop acc =
      let acc = additive c :: acc in
      if accept_symbol c "," then loop acc
      else begin
        expect_symbol c ")";
        List.rev acc
      end
    in
    In (left, loop [])
  in
  let between_suffix left =
    let lo = additive c in
    expect_keyword c "AND";
    let hi = additive c in
    Between (left, lo, hi)
  in
  let like_suffix left =
    match next c with
    | Lexer.STRING pat -> Like (left, pat)
    | t -> fail "expected pattern string after LIKE, found %s" (describe t)
  in
  match peek c with
  | Lexer.SYMBOL ("=" | "<>" | "<" | "<=" | ">" | ">=") ->
    let op =
      match next c with
      | Lexer.SYMBOL "=" -> Eq
      | Lexer.SYMBOL "<>" -> Neq
      | Lexer.SYMBOL "<" -> Lt
      | Lexer.SYMBOL "<=" -> Le
      | Lexer.SYMBOL ">" -> Gt
      | Lexer.SYMBOL ">=" -> Ge
      | _ -> assert false
    in
    Binop (op, left, additive c)
  | Lexer.KEYWORD "IS" ->
    advance c;
    let negated = accept_keyword c "NOT" in
    expect_keyword c "NULL";
    if negated then Is_not_null left else Is_null left
  | Lexer.KEYWORD "IN" ->
    advance c;
    in_suffix left
  | Lexer.KEYWORD "BETWEEN" ->
    advance c;
    between_suffix left
  | Lexer.KEYWORD "LIKE" ->
    advance c;
    like_suffix left
  | Lexer.KEYWORD "NOT" ->
    (* e NOT IN / NOT BETWEEN / NOT LIKE. *)
    advance c;
    if accept_keyword c "IN" then Unop (Not, in_suffix left)
    else if accept_keyword c "BETWEEN" then Unop (Not, between_suffix left)
    else if accept_keyword c "LIKE" then Unop (Not, like_suffix left)
    else fail "expected IN, BETWEEN or LIKE after NOT"
  | _ -> left

and additive c =
  let rec loop left =
    if accept_symbol c "+" then loop (Binop (Add, left, multiplicative c))
    else if accept_symbol c "-" then loop (Binop (Sub, left, multiplicative c))
    else left
  in
  loop (multiplicative c)

and multiplicative c =
  let rec loop left =
    if accept_symbol c "*" then loop (Binop (Mul, left, unary c))
    else if accept_symbol c "/" then loop (Binop (Div, left, unary c))
    else left
  in
  loop (unary c)

and unary c = if accept_symbol c "-" then Unop (Neg, unary c) else primary c

and aggregate c agg =
  expect_symbol c "(";
  let arg =
    if accept_symbol c "*" then
      if agg = Count then None else fail "only COUNT accepts *"
    else Some (expr c)
  in
  expect_symbol c ")";
  Agg (agg, arg)

and primary c =
  match next c with
  | Lexer.INT n -> Lit (Value.Int n)
  | Lexer.FLOAT f -> Lit (Value.Float f)
  | Lexer.STRING s -> Lit (Value.Str s)
  | Lexer.PARAM p -> Param p
  | Lexer.KEYWORD "NULL" -> Lit Value.Null
  | Lexer.KEYWORD "TRUE" -> Lit (Value.Bool true)
  | Lexer.KEYWORD "FALSE" -> Lit (Value.Bool false)
  | Lexer.KEYWORD "DATE" -> (
    (* [DATE 'literal'] is a date constant; bare [date] is a column. *)
    match peek c with
    | Lexer.STRING body ->
      advance c;
      Lit (parse_date body)
    | _ -> Col (None, "date"))
  | Lexer.KEYWORD "SUM" -> aggregate c Sum
  | Lexer.KEYWORD "COUNT" -> aggregate c Count
  | Lexer.KEYWORD "MIN" -> aggregate c Min
  | Lexer.KEYWORD "MAX" -> aggregate c Max
  | Lexer.KEYWORD "AVG" -> aggregate c Avg
  | Lexer.KEYWORD "CASE" ->
    let rec arms acc =
      if accept_keyword c "WHEN" then begin
        let cond = expr c in
        expect_keyword c "THEN";
        let value = expr c in
        arms ((cond, value) :: acc)
      end
      else List.rev acc
    in
    let arms = arms [] in
    if arms = [] then fail "CASE requires at least one WHEN arm";
    let default = if accept_keyword c "ELSE" then Some (expr c) else None in
    expect_keyword c "END";
    Case (arms, default)
  | Lexer.SYMBOL "(" ->
    let e = expr c in
    expect_symbol c ")";
    e
  | Lexer.IDENT name ->
    if accept_symbol c "." then Col (Some name, ident c) else Col (None, name)
  | t -> fail "unexpected token %s in expression" (describe t)

let select_items c =
  let item () =
    if accept_symbol c "*" then Star
    else
      let e = expr c in
      let alias =
        if accept_keyword c "AS" then Some (ident c)
        else match peek c with Lexer.IDENT name -> advance c; Some name | _ -> None
      in
      Item (e, alias)
  in
  let rec loop acc = if accept_symbol c "," then loop (item () :: acc) else List.rev acc in
  loop [ item () ]

let from_clause c =
  let table_ref () =
    let name = ident c in
    let alias =
      if accept_keyword c "AS" then Some (ident c)
      else match peek c with Lexer.IDENT a -> advance c; Some a | _ -> None
    in
    (name, alias)
  in
  let rec loop acc =
    if accept_symbol c "," then loop (table_ref () :: acc) else List.rev acc
  in
  loop [ table_ref () ]

let expr_list c =
  let rec loop acc = if accept_symbol c "," then loop (expr c :: acc) else List.rev acc in
  loop [ expr c ]

let parse_select_body c =
  let distinct = accept_keyword c "DISTINCT" in
  let items = select_items c in
  expect_keyword c "FROM";
  let from = from_clause c in
  let where = if accept_keyword c "WHERE" then Some (expr c) else None in
  let group_by =
    if accept_keyword c "GROUP" then begin
      expect_keyword c "BY";
      expr_list c
    end
    else []
  in
  let having = if accept_keyword c "HAVING" then Some (expr c) else None in
  let order_by =
    if accept_keyword c "ORDER" then begin
      expect_keyword c "BY";
      let one () =
        let e = expr c in
        let dir =
          if accept_keyword c "DESC" then Desc
          else begin
            ignore (accept_keyword c "ASC");
            Asc
          end
        in
        (e, dir)
      in
      let rec loop acc = if accept_symbol c "," then loop (one () :: acc) else List.rev acc in
      loop [ one () ]
    end
    else []
  in
  let limit =
    if accept_keyword c "LIMIT" then begin
      let n =
        match next c with
        | Lexer.INT n when n >= 0 -> n
        | t -> fail "expected row count after LIMIT, found %s" (describe t)
      in
      let m =
        if accept_keyword c "OFFSET" then
          match next c with
          | Lexer.INT m when m >= 0 -> m
          | t -> fail "expected row count after OFFSET, found %s" (describe t)
        else 0
      in
      Some (n, m)
    end
    else None
  in
  { distinct; items; from; where; group_by; having; order_by; limit }

let parse_statement c =
  match next c with
  | Lexer.KEYWORD "SELECT" -> Select (parse_select_body c)
  | Lexer.KEYWORD "INSERT" ->
    expect_keyword c "INTO";
    let table = ident c in
    let columns =
      if accept_symbol c "(" then begin
        let rec loop acc =
          let acc = ident c :: acc in
          if accept_symbol c "," then loop acc
          else begin
            expect_symbol c ")";
            List.rev acc
          end
        in
        Some (loop [])
      end
      else None
    in
    expect_keyword c "VALUES";
    let row () =
      expect_symbol c "(";
      let vs = expr_list c in
      expect_symbol c ")";
      vs
    in
    let rec rows acc = if accept_symbol c "," then rows (row () :: acc) else List.rev acc in
    Insert { table; columns; rows = rows [ row () ] }
  | Lexer.KEYWORD "UPDATE" ->
    let table = ident c in
    expect_keyword c "SET";
    let assignment () =
      let col = ident c in
      expect_symbol c "=";
      (col, expr c)
    in
    let rec sets acc =
      if accept_symbol c "," then sets (assignment () :: acc) else List.rev acc
    in
    let sets = sets [ assignment () ] in
    let where = if accept_keyword c "WHERE" then Some (expr c) else None in
    Update { table; sets; where }
  | Lexer.KEYWORD "DELETE" ->
    expect_keyword c "FROM";
    let table = ident c in
    let where = if accept_keyword c "WHERE" then Some (expr c) else None in
    Delete { table; where }
  | t -> fail "expected a statement, found %s" (describe t)

let finish c =
  ignore (accept_symbol c ";");
  match peek c with
  | Lexer.EOF -> ()
  | t -> fail "trailing input: %s" (describe t)

let parse_tokens tokens =
  let c = { tokens } in
  let stmt = parse_statement c in
  finish c;
  stmt

let parse src = parse_tokens (Lexer.tokenize src)

let select_of = function
  | Select s -> s
  | Insert _ | Update _ | Delete _ -> fail "expected a SELECT statement"

let parse_select src = select_of (parse src)

let parse_shape key = select_of (parse_tokens (Lexer.tokenize ~placeholders:true key))

let parse_expr src =
  let c = { tokens = Lexer.tokenize src } in
  let e = expr c in
  finish c;
  e
