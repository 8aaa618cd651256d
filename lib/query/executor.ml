module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Ast = Vnl_sql.Ast

exception Query_error = Plan.Query_error

let fail fmt = Printf.ksprintf (fun s -> raise (Query_error s)) fmt

type result = Plan.result = { columns : string list; rows : Value.t list list }

(* A source row is the concatenation of one tuple per FROM table. *)
type binding = {
  label : string;  (** Alias if given, else table name. *)
  schema : Schema.t;
  offset : int;  (** Position of this table's first attribute in the row. *)
}

let bindings_of_from db from =
  let offset = ref 0 in
  List.map
    (fun (table_name, alias) ->
      let table =
        match Database.table db table_name with
        | Some t -> t
        | None -> fail "no such table %S" table_name
      in
      let schema = Table.schema table in
      let binding =
        {
          label = (match alias with Some a -> a | None -> table_name);
          schema;
          offset = !offset;
        }
      in
      offset := !offset + Schema.arity schema;
      (table, binding))
    from

(* Resolve (qualifier, column) to a row position, checking ambiguity. *)
let resolver bindings =
  let find q name =
    let candidates =
      List.filter_map
        (fun b ->
          match q with
          | Some q when not (String.equal q b.label) -> None
          | _ -> (
            match Schema.index_of_opt b.schema name with
            | Some i -> Some (b.offset + i)
            | None -> None))
        bindings
    in
    match candidates with
    | [ pos ] -> pos
    | [] ->
      let q = match q with Some q -> q ^ "." | None -> "" in
      raise (Eval.Eval_error (Printf.sprintf "unknown column %s%s" q name))
    | _ :: _ :: _ ->
      raise (Eval.Eval_error (Printf.sprintf "ambiguous column %s" name))
  in
  let cache = Hashtbl.create 16 in
  fun q name ->
    let key = (q, name) in
    match Hashtbl.find_opt cache key with
    | Some pos -> pos
    | None ->
      let pos = find q name in
      Hashtbl.add cache key pos;
      pos

(* ---------- Access-path selection ---------- *)

let rec conjuncts = function
  | Ast.Binop (Ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Evaluate an expression that must not reference any column (literals,
   parameters, arithmetic over them). *)
let const_eval ~params e =
  match Eval.eval { Eval.resolve = Eval.no_columns; params } e with
  | v -> Some v
  | exception Eval.Eval_error _ -> None

(* Top-level [col = constant] conjuncts binding attributes of the table
   labeled [label]. *)
let equality_bindings ~params ~label where =
  match where with
  | None -> []
  | Some w ->
    List.filter_map
      (fun c ->
        let pair =
          match c with
          | Ast.Binop (Ast.Eq, Ast.Col (q, name), e) -> Some (q, name, e)
          | Ast.Binop (Ast.Eq, e, Ast.Col (q, name)) -> Some (q, name, e)
          | _ -> None
        in
        match pair with
        | Some (q, name, e) when q = None || q = Some label -> (
          match const_eval ~params e with Some v -> Some (name, v) | None -> None)
        | Some _ | None -> None)
      (conjuncts w)

type access =
  | Full_scan
  | Unique_probe of Value.t list
  | Index_scan of string * Value.t list  (** Index name and probe values. *)

(* Pick the cheapest applicable access path given equality-bound
   attributes: unique-key probe, then the longest covered secondary index,
   then a scan.  The full WHERE still runs as a residual filter, so the
   choice affects cost only, never results. *)
let choose_access table bound =
  let schema = Table.schema table in
  let key_attrs =
    List.map (fun i -> (Schema.attribute schema i).Schema.name) (Schema.key_indices schema)
  in
  let value_of attr = List.assoc_opt attr bound in
  let all_key_values = List.map value_of key_attrs in
  if
    Table.has_key table && key_attrs <> []
    && List.for_all Option.is_some all_key_values
  then Unique_probe (List.map Option.get all_key_values)
  else
    match Table.index_covering table (List.map fst bound) with
    | Some name ->
      let attrs = Table.index_attrs table name in
      Index_scan (name, List.map (fun a -> Option.get (value_of a)) attrs)
    | None -> Full_scan

let rows_via_access table access =
  match access with
  | Full_scan ->
    let acc = ref [] in
    Table.scan table (fun _ tuple -> acc := tuple :: !acc);
    List.rev !acc
  | Unique_probe key -> (
    match Table.find_by_key table key with Some (_, t) -> [ t ] | None -> [])
  | Index_scan (name, values) ->
    List.filter_map (fun rid -> Table.get table rid) (Table.index_lookup table ~name values)

(* The per-table access plan for a SELECT. *)
let plan_of db ~params (s : Ast.select) =
  let pairs = bindings_of_from db s.Ast.from in
  (match pairs with [] -> fail "empty FROM clause" | _ -> ());
  List.map
    (fun (table, binding) ->
      let bound = equality_bindings ~params ~label:binding.label s.Ast.where in
      (table, binding, choose_access table bound))
    pairs

(* Materialize the filtered cross product of the FROM tables, each accessed
   through its chosen path. *)
let source_rows db ~params (s : Ast.select) =
  let plan = plan_of db ~params s in
  let bindings = List.map (fun (_, b, _) -> b) plan in
  let resolve_pos = resolver bindings in
  let env_of row =
    { Eval.resolve = (fun q name -> row.(resolve_pos q name)); params }
  in
  let rows = ref [] in
  let rec product acc = function
    | [] ->
      let row = Array.concat (List.rev acc) in
      let keep =
        match s.Ast.where with
        | None -> true
        | Some pred -> Eval.eval_pred (env_of row) pred
      in
      if keep then rows := row :: !rows
    | (table, _, access) :: rest ->
      List.iter
        (fun tuple -> product (Array.of_list (Tuple.values tuple) :: acc) rest)
        (rows_via_access table access)
  in
  product [] plan;
  (List.rev !rows, env_of, bindings)

(* Evaluate an expression that may contain aggregates over a group. *)
let rec eval_agg env_of group (e : Ast.expr) =
  (* The representative row backs non-aggregate leaves; a pure-aggregate
     expression over an empty group (e.g. COUNT on an empty table) never
     forces it. *)
  let rep_env () =
    match group with
    | row :: _ -> env_of row
    | [] -> { Eval.resolve = Eval.no_columns; params = [] }
  in
  match e with
  | Ast.Agg (kind, arg) -> compute_aggregate env_of group kind arg
  | Ast.Lit _ | Ast.Col _ | Ast.Param _ -> Eval.eval (rep_env ()) e
  | Ast.Binop (op, a, b) ->
    let va = eval_agg env_of group a and vb = eval_agg env_of group b in
    Eval.eval (rep_env ()) (Ast.Binop (op, Ast.Lit va, Ast.Lit vb))
  | Ast.Unop (op, a) ->
    Eval.eval (rep_env ()) (Ast.Unop (op, Ast.Lit (eval_agg env_of group a)))
  | Ast.Case (arms, default) ->
    let rec arm = function
      | [] -> (
        match default with Some d -> eval_agg env_of group d | None -> Value.Null)
      | (cond, value) :: rest ->
        if Eval.truthy (eval_agg env_of group cond) then eval_agg env_of group value
        else arm rest
    in
    arm arms
  | Ast.Is_null a -> Value.Bool (Value.is_null (eval_agg env_of group a))
  | Ast.Is_not_null a -> Value.Bool (not (Value.is_null (eval_agg env_of group a)))
  | Ast.In (a, cands) ->
    Eval.eval (rep_env ())
      (Ast.In (Ast.Lit (eval_agg env_of group a), List.map (fun c -> Ast.Lit (eval_agg env_of group c)) cands))
  | Ast.Between (a, lo, hi) ->
    Eval.eval (rep_env ())
      (Ast.Between
         ( Ast.Lit (eval_agg env_of group a),
           Ast.Lit (eval_agg env_of group lo),
           Ast.Lit (eval_agg env_of group hi) ))
  | Ast.Like (a, pat) -> Eval.eval (rep_env ()) (Ast.Like (Ast.Lit (eval_agg env_of group a), pat))

and compute_aggregate env_of group kind arg =
  let values =
    match arg with
    | None -> List.map (fun _ -> Value.Int 1) group
    | Some e -> List.map (fun row -> Eval.eval (env_of row) e) group
  in
  let present = List.filter (fun v -> not (Value.is_null v)) values in
  match kind with
  | Ast.Count ->
    Value.Int (match arg with None -> List.length group | Some _ -> List.length present)
  | Ast.Sum -> (
    match present with
    | [] -> Value.Null
    | first :: rest -> List.fold_left Value.add first rest)
  | Ast.Min -> (
    match present with
    | [] -> Value.Null
    | first :: rest -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) first rest)
  | Ast.Max -> (
    match present with
    | [] -> Value.Null
    | first :: rest -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) first rest)
  | Ast.Avg -> (
    match present with
    | [] -> Value.Null
    | vs ->
      let total = List.fold_left (fun acc v -> acc +. Value.to_float v) 0.0 vs in
      Value.Float (total /. float_of_int (List.length vs)))

let item_label i = function
  | Ast.Star -> fail "SELECT * cannot be labeled"
  | Ast.Item (_, Some alias) -> alias
  | Ast.Item (Ast.Col (_, name), None) -> name
  | Ast.Item (Ast.Agg (kind, _), None) ->
    String.lowercase_ascii
      (match kind with
      | Ast.Sum -> "sum"
      | Ast.Count -> "count"
      | Ast.Min -> "min"
      | Ast.Max -> "max"
      | Ast.Avg -> "avg")
  | Ast.Item (_, None) -> Printf.sprintf "col%d" i

(* Expand SELECT * into explicit column items using the FROM bindings. *)
let expand_items bindings items =
  List.concat_map
    (fun item ->
      match item with
      | Ast.Star ->
        List.concat_map
          (fun b ->
            List.map
              (fun a -> Ast.Item (Ast.Col (Some b.label, a.Schema.name), Some a.Schema.name))
              (Schema.attributes b.schema))
          bindings
      | Ast.Item _ -> [ item ])
    items

let grouped (s : Ast.select) =
  s.Ast.group_by <> []
  || List.exists
       (function Ast.Star -> false | Ast.Item (e, _) -> Ast.has_aggregate e)
       s.Ast.items
  || match s.Ast.having with Some e -> Ast.has_aggregate e | None -> false

module Keymap = Map.Make (struct
  type t = Value.t list

  let compare = Plan.compare_value_lists
end)

let dedupe rows =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun row ->
      let key = List.map Value.to_string row in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    rows

let query db ?(params = []) (s : Ast.select) =
  let rows, env_of, bindings = source_rows db ~params s in
  let items = expand_items bindings s.Ast.items in
  let columns = List.mapi item_label items in
  let exprs =
    List.map (function Ast.Item (e, _) -> e | Ast.Star -> assert false) items
  in
  let projected_with_order =
    if grouped s then begin
      (* Partition rows into groups keyed by the GROUP BY expressions. *)
      let groups = ref Keymap.empty and order = ref [] in
      List.iter
        (fun row ->
          let key = List.map (fun e -> Eval.eval (env_of row) e) s.Ast.group_by in
          (match Keymap.find_opt key !groups with
          | None ->
            groups := Keymap.add key [ row ] !groups;
            order := key :: !order
          | Some members -> groups := Keymap.add key (row :: members) !groups))
        rows;
      let keys = List.rev !order in
      let group_rows =
        List.map (fun key -> List.rev (Keymap.find key !groups)) keys
      in
      (* SQL semantics: a global aggregate (no GROUP BY) over an empty input
         still yields one row, e.g. COUNT star = 0. *)
      let group_rows =
        if group_rows = [] && s.Ast.group_by = [] then [ [] ] else group_rows
      in
      let survives group =
        match s.Ast.having with
        | None -> true
        | Some pred -> Eval.truthy (eval_agg env_of group pred)
      in
      List.filter_map
        (fun group ->
          if survives group then
            let out = List.map (fun e -> eval_agg env_of group e) exprs in
            let sort_key =
              List.map (fun (e, _) -> eval_agg env_of group e) s.Ast.order_by
            in
            Some (out, sort_key)
          else None)
        group_rows
    end
    else
      List.map
        (fun row ->
          let out = List.map (fun e -> Eval.eval (env_of row) e) exprs in
          let sort_key =
            List.map (fun (e, _) -> Eval.eval (env_of row) e) s.Ast.order_by
          in
          (out, sort_key))
        rows
  in
  let sorted =
    match s.Ast.order_by with
    | [] -> List.map fst projected_with_order
    | order_by ->
      let directions = List.map snd order_by in
      let cmp (_, ka) (_, kb) =
        let rec loop ks1 ks2 dirs =
          match (ks1, ks2, dirs) with
          | [], [], _ -> 0
          | k1 :: r1, k2 :: r2, dir :: rd ->
            let c = Value.compare k1 k2 in
            let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
            if c <> 0 then c else loop r1 r2 rd
          | _ -> 0
        in
        loop ka kb directions
      in
      List.map fst (List.stable_sort cmp projected_with_order)
  in
  let deduped = if s.Ast.distinct then dedupe sorted else sorted in
  let final =
    match s.Ast.limit with
    | None -> deduped
    | Some (n, m) -> List.filteri (fun i _ -> i >= m && i < m + n) deduped
  in
  { columns; rows = final }
