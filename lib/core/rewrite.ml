module Ast = Vnl_sql.Ast
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Plan = Vnl_query.Plan
module Dml = Vnl_query.Dml
module Eval = Vnl_query.Eval

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let session_param = Ast.Param "sessionVN"

let qcol qualifier name = Ast.Col (qualifier, name)

let and_all = function
  | [] -> Ast.Lit (Value.Bool true)
  | c :: cs -> List.fold_left (fun acc c -> Ast.Binop (Ast.And, acc, c)) c cs

let or_all = function
  | [] -> Ast.Lit (Value.Bool false)
  | c :: cs -> List.fold_left (fun acc c -> Ast.Binop (Ast.Or, acc, c)) c cs

(* The visibility predicate.  For n = 2 this is exactly the paper's
   Example 4.1 form:

     (:sessionVN >= tupleVN AND operation <> 'd')
     OR (:sessionVN < tupleVN AND operation <> 'i')

   For n > 2 (a generalization the paper calls straightforward but does not
   spell out, §5) a pre-update disjunct is emitted per slot j: the slot
   governs when the session is below every newer slot's version and either
   slot j+1 is unused or the session is at or above its version; the last
   slot additionally requires sessionVN >= tupleVN{n-1} - 1 — rows past that
   belong to expired sessions, which the global §4.1 check rejects anyway. *)
let visibility_predicate ~qualifier ext =
  let vn j = qcol qualifier (Schema_ext.tuple_vn_name ext ~slot:j) in
  let op j = qcol qualifier (Schema_ext.operation_name ext ~slot:j) in
  let s = session_param in
  let nslots = Schema_ext.slots ext in
  let current =
    Ast.Binop
      ( Ast.And,
        Ast.Binop (Ast.Ge, s, vn 1),
        Ast.Binop (Ast.Neq, op 1, Ast.Lit (Value.Str "d")) )
  in
  let pre_disjunct j =
    let newer = List.init j (fun i -> Ast.Binop (Ast.Lt, s, vn (i + 1))) in
    let lower =
      if j < nslots then
        [
          Ast.Binop
            ( Ast.Or,
              Ast.Is_null (vn (j + 1)),
              Ast.Binop (Ast.Ge, s, vn (j + 1)) );
        ]
      else if j = 1 then
        (* Plain 2VNL: match the paper's predicate exactly; per-tuple expiry
           is left to the global check. *)
        []
      else [ Ast.Binop (Ast.Ge, s, Ast.Binop (Ast.Sub, vn j, Ast.Lit (Value.Int 1))) ]
    in
    and_all (newer @ lower @ [ Ast.Binop (Ast.Neq, op j, Ast.Lit (Value.Str "i")) ])
  in
  or_all (current :: List.init nslots (fun j -> pre_disjunct (j + 1)))

(* The CASE expression substituted for an updatable attribute reference.
   n = 2 degenerates to the paper's

     CASE WHEN :sessionVN >= tupleVN THEN a ELSE pre_a END

   and each extra version slot adds one WHEN arm selecting that slot's
   pre-update copy when it is the governing slot. *)
let case_for_attribute ~qualifier ext name =
  let vn j = qcol qualifier (Schema_ext.tuple_vn_name ext ~slot:j) in
  let s = session_param in
  let nslots = Schema_ext.slots ext in
  let arms =
    (Ast.Binop (Ast.Ge, s, vn 1), qcol qualifier name)
    :: List.filter_map
         (fun j ->
           if j = nslots then None
           else
             Some
               ( Ast.Binop
                   ( Ast.Or,
                     Ast.Is_null (vn (j + 1)),
                     Ast.Binop (Ast.Ge, s, vn (j + 1)) ),
                 qcol qualifier (Schema_ext.pre_name ext ~slot:j name) ))
         (List.init nslots (fun j -> j + 1))
  in
  Ast.Case (arms, Some (qcol qualifier (Schema_ext.pre_name ext ~slot:nslots name)))

(* FROM entries that are 2VNL-extended, with the label their columns are
   qualified by. *)
let extended_tables ~lookup (s : Ast.select) =
  List.filter_map
    (fun (table, alias) ->
      match lookup table with
      | None -> None
      | Some ext ->
        let label = match alias with Some a -> a | None -> table in
        Some (label, alias <> None, ext))
    s.Ast.from

let updatable_names ext =
  List.map
    (fun j -> (Schema.attribute (Schema_ext.base ext) j).Schema.name)
    (Schema_ext.updatable_base_indices ext)

let reader_select ~lookup (s : Ast.select) =
  let tables = extended_tables ~lookup s in
  if tables = [] then s
  else begin
    let multi = List.length s.Ast.from > 1 in
    (* Substitute CASE expressions for updatable-attribute references. *)
    let substitute expr =
      Ast.map_columns
        (fun q name ->
          let owner =
            List.find_opt
              (fun (label, _, ext) ->
                (match q with Some q -> String.equal q label | None -> true)
                && List.mem name (updatable_names ext))
              tables
          in
          match owner with
          | Some (label, _, ext) ->
            let qualifier = if multi || q <> None then Some label else None in
            case_for_attribute ~qualifier ext name
          | None -> Ast.Col (q, name))
        expr
    in
    (* SELECT * means the *base* schema to a 2VNL reader: expand it to the
       base attributes, substituting CASE for the updatable ones, so the
       bookkeeping columns stay hidden. *)
    let star_expansion () =
      List.concat_map
        (fun (table, alias) ->
          match lookup table with
          | None ->
            fail "SELECT * mixing extended and plain tables is not rewritable"
          | Some ext ->
            let label = match alias with Some a -> a | None -> table in
            let qualifier = if multi || alias <> None then Some label else None in
            List.map
              (fun a ->
                let name = a.Vnl_relation.Schema.name in
                let e =
                  if List.mem name (updatable_names ext) then
                    case_for_attribute ~qualifier ext name
                  else Ast.Col (qualifier, name)
                in
                Ast.Item (e, Some name))
              (Schema.attributes (Schema_ext.base ext)))
        s.Ast.from
    in
    let sub_item = function
      | Ast.Star -> star_expansion ()
      | Ast.Item (e, alias) -> [ Ast.Item (substitute e, alias) ]
    in
    let where =
      List.fold_left
        (fun acc (label, aliased, ext) ->
          let qualifier = if multi || aliased then Some label else None in
          Some (Ast.conj acc (visibility_predicate ~qualifier ext)))
        (Option.map substitute s.Ast.where)
        tables
    in
    {
      s with
      Ast.items = List.concat_map sub_item s.Ast.items;
      where;
      group_by = List.map substitute s.Ast.group_by;
      having = Option.map substitute s.Ast.having;
      order_by = List.map (fun (e, d) -> (substitute e, d)) s.Ast.order_by;
    }
  end

(* §4.1 fast-path recognition: a SELECT a 2VNL reader can answer by
   engine-level extraction ({!Reader.extract}) instead of the CASE +
   visibility-predicate rewrite.  Recognized shape: a single registered
   FROM table with every column reference resolving in its base schema.
   For such a query the rewrite changes exactly what extract computes
   tuple-by-tuple — CASE-selected attribute versions plus the visibility
   test — so running the original query over the extracted relation is
   equivalent (the engine/SQL equivalence the property tests assert). *)
let reader_fast_path ~lookup (s : Ast.select) =
  match s.Ast.from with
  | [ (table, alias) ] -> (
    match lookup table with
    | None -> None
    | Some ext ->
      let label = match alias with Some a -> a | None -> table in
      let base = Schema_ext.base ext in
      let col_ok (q, name) =
        (match q with None -> true | Some q -> String.equal q label)
        && Schema.mem base name
      in
      let expr_ok e = List.for_all col_ok (Ast.columns_of e) in
      let item_ok = function Ast.Star -> true | Ast.Item (e, _) -> expr_ok e in
      let opt_ok = function None -> true | Some e -> expr_ok e in
      if
        List.for_all item_ok s.Ast.items
        && opt_ok s.Ast.where
        && List.for_all expr_ok s.Ast.group_by
        && opt_ok s.Ast.having
        && List.for_all (fun (e, _) -> expr_ok e) s.Ast.order_by
      then Some (table, label)
      else None)
  | _ -> None

let reader_sql ~lookup src =
  let s = Vnl_sql.Parser.parse_select src in
  Vnl_sql.Pp.statement_to_string (Ast.Select (reader_select ~lookup s))

let session_valid db ~session_vn =
  let check =
    Vnl_sql.Parser.parse_select
      "SELECT COUNT(*) FROM Version WHERE currentVN = :sessionVN \
       OR (currentVN = :sessionVN + 1 AND maintenanceActive = FALSE)"
  in
  let r =
    Plan.execute ~params:[ ("sessionVN", Value.Int session_vn) ] (Plan.prepare db check)
  in
  match r.Plan.rows with
  | [ [ Value.Int n ] ] -> n > 0
  | _ -> invalid_arg "Rewrite.session_valid: unexpected Version relation shape"

(* Maintenance cursors: rids of logically live tuples matching a base-schema
   predicate evaluated over current values. *)
let live_matching db ext table where =
  let tbl = Database.table_exn db table in
  let schema = Table.schema tbl in
  let acc = ref [] in
  Table.scan tbl (fun rid tuple ->
      if Maintenance.is_logically_live ext tuple then
        let keep =
          match where with
          | None -> true
          | Some pred -> Eval.eval_pred (Dml.env_for_tuple schema tuple) pred
        in
        if keep then acc := rid :: !acc);
  List.rev !acc

let ext_of ~lookup table =
  match lookup table with
  | Some ext -> ext
  | None -> fail "table %s is not registered for 2VNL maintenance" table

let maintenance_statement ?stats ?on_over_delete ?was_insert_over_delete db ~lookup ~vn
    (stmt : Ast.statement) =
  match stmt with
  | Ast.Select _ -> fail "maintenance transactions issue DML, not queries"
  | Ast.Insert { table; columns; rows } ->
    let ext = ext_of ~lookup table in
    let base = Schema_ext.base ext in
    let tbl = Database.table_exn db table in
    let env = { Eval.resolve = Eval.no_columns; params = [] } in
    let build row_exprs =
      match columns with
      | None ->
        if List.length row_exprs <> Schema.arity base then
          fail "INSERT into %s: expected %d values" table (Schema.arity base);
        Tuple.make base (List.map (Eval.eval env) row_exprs)
      | Some cols ->
        let assignments =
          List.map2 (fun col e -> (Schema.index_of base col, Eval.eval env e)) cols row_exprs
        in
        Tuple.of_array base
          (Array.init (Schema.arity base) (fun i ->
               match List.assoc_opt i assignments with Some v -> v | None -> Value.Null))
    in
    List.iter
      (fun row -> ignore (Maintenance.apply_insert ?stats ?on_over_delete ext tbl ~vn (build row)))
      rows;
    List.length rows
  | Ast.Update { table; sets; where } ->
    let ext = ext_of ~lookup table in
    let base = Schema_ext.base ext in
    let tbl = Database.table_exn db table in
    let positions =
      List.map
        (fun (col, e) ->
          match Schema.index_of_opt base col with
          | Some j -> (j, e)
          | None -> fail "UPDATE %s: unknown column %s" table col)
        sets
    in
    let rids = live_matching db ext table where in
    List.iter
      (fun rid ->
        match Table.get tbl rid with
        | None -> ()
        | Some tuple ->
          (* Assignment right-hand sides see the current version. *)
          let env = Dml.env_for_tuple (Table.schema tbl) tuple in
          let assignments = List.map (fun (j, e) -> (j, Eval.eval env e)) positions in
          Maintenance.apply_update ?stats ext tbl ~vn rid assignments)
      rids;
    List.length rids
  | Ast.Delete { table; where } ->
    let ext = ext_of ~lookup table in
    let tbl = Database.table_exn db table in
    let rids = live_matching db ext table where in
    List.iter
      (fun rid -> Maintenance.apply_delete ?stats ?was_insert_over_delete ext tbl ~vn rid)
      rids;
    List.length rids

let maintenance_sql ?stats ?on_over_delete ?was_insert_over_delete db ~lookup ~vn src =
  maintenance_statement ?stats ?on_over_delete ?was_insert_over_delete db ~lookup ~vn
    (Vnl_sql.Parser.parse src)
