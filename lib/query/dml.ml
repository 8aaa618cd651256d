module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Ast = Vnl_sql.Ast

exception Dml_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Dml_error s)) fmt

type outcome = { matched : int; changed : int }

let env_for_tuple ?(params = []) schema tuple =
  let resolve q name =
    ignore q;
    match Schema.index_of_opt schema name with
    | Some i -> Tuple.get tuple i
    | None -> raise (Eval.Eval_error (Printf.sprintf "unknown column %s" name))
  in
  { Eval.resolve; params }

let select_rids db ?(params = []) ~table where =
  let tbl = Database.table_exn db table in
  let schema = Table.schema tbl in
  let acc = ref [] in
  Table.scan tbl (fun rid tuple ->
      let keep =
        match where with
        | None -> true
        | Some pred -> Eval.eval_pred (env_for_tuple ~params schema tuple) pred
      in
      if keep then acc := rid :: !acc);
  List.rev !acc

let insert db ?(params = []) ~table ~columns rows =
  let tbl = Database.table_exn db table in
  let schema = Table.schema tbl in
  let env = { Eval.resolve = Eval.no_columns; params } in
  let build row_exprs =
    match columns with
    | None ->
      if List.length row_exprs <> Schema.arity schema then
        fail "INSERT into %s: expected %d values, got %d" table (Schema.arity schema)
          (List.length row_exprs);
      Tuple.make schema (List.map (Eval.eval env) row_exprs)
    | Some cols ->
      if List.length cols <> List.length row_exprs then
        fail "INSERT into %s: %d columns but %d values" table (List.length cols)
          (List.length row_exprs);
      let assignments =
        List.map2 (fun col e -> (Schema.index_of schema col, Eval.eval env e)) cols row_exprs
      in
      let values =
        Array.init (Schema.arity schema) (fun i ->
            match List.assoc_opt i assignments with Some v -> v | None -> Value.Null)
      in
      Tuple.of_array schema values
  in
  let count = ref 0 in
  List.iter
    (fun row_exprs ->
      ignore (Table.insert tbl (build row_exprs));
      incr count)
    rows;
  { matched = !count; changed = !count }

let update db ?(params = []) ~table ~sets where =
  let tbl = Database.table_exn db table in
  let schema = Table.schema tbl in
  let assignments =
    List.map
      (fun (col, e) ->
        match Schema.index_of_opt schema col with
        | Some i -> (i, e)
        | None -> fail "UPDATE %s: unknown column %s" table col)
      sets
  in
  let rids = select_rids db ~params ~table where in
  let changed = ref 0 in
  List.iter
    (fun rid ->
      match Table.get tbl rid with
      | None -> ()  (* Deleted since the cursor was opened. *)
      | Some old ->
        let env = env_for_tuple ~params schema old in
        let updates = List.map (fun (i, e) -> (i, Eval.eval env e)) assignments in
        Table.update_in_place tbl rid (Tuple.set_many old updates);
        incr changed)
    rids;
  { matched = List.length rids; changed = !changed }

let delete db ?(params = []) ~table where =
  let tbl = Database.table_exn db table in
  let rids = select_rids db ~params ~table where in
  let changed = ref 0 in
  List.iter
    (fun rid ->
      match Table.get tbl rid with
      | None -> ()
      | Some _ ->
        Table.delete tbl rid;
        incr changed)
    rids;
  { matched = List.length rids; changed = !changed }

let execute db ?(params = []) (stmt : Ast.statement) =
  match stmt with
  | Ast.Select _ -> fail "Dml.execute: SELECT belongs to Plan.execute"
  | Ast.Insert { table; columns; rows } -> insert db ~params ~table ~columns rows
  | Ast.Update { table; sets; where } -> update db ~params ~table ~sets where
  | Ast.Delete { table; where } -> delete db ~params ~table where

let execute_string db ?params src = execute db ?params (Vnl_sql.Parser.parse src)
