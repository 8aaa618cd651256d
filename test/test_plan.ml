(* Differential and cache tests for the compiled query path.

   The contract under test: Plan may change CPU cost only.  So the
   compiled path must (1) agree with the interpreter on every query —
   results, output labels, and failure/success — over randomized schemas,
   data, and queries; (2) never serve a stale plan across catalog changes;
   and (3) touch exactly the pages the interpreter touches. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Executor = Vnl_query.Executor
module Plan = Vnl_query.Plan
module Parser = Vnl_sql.Parser
module Ast = Vnl_sql.Ast
module Pp = Vnl_sql.Pp
module Shape = Vnl_sql.Shape
module Lexer = Vnl_sql.Lexer
module Twovnl = Vnl_core.Twovnl
module Rewrite = Vnl_core.Rewrite
module Obs = Vnl_obs.Obs

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Differential property: compiled = interpreted on random queries.    *)
(* ------------------------------------------------------------------ *)

(* Two small tables sharing a column name (so unqualified [c_a] is
   ambiguous in joins) and with columns the other lacks (so [c_d] over
   [t_a] is an unknown-column error).  The generator deliberately produces
   a mix of valid queries, type errors, unknown/ambiguous columns, and
   unbound parameters: on errors the two paths must agree that the query
   fails, on success they must agree on the exact rows. *)

let schema_a =
  Schema.make
    [
      Schema.attr ~key:true "c_a" Dtype.Int;
      Schema.attr ~updatable:true "c_b" Dtype.Int;
      Schema.attr "c_c" (Dtype.Str 8);
    ]

let schema_b =
  Schema.make [ Schema.attr ~key:true "c_a" Dtype.Int; Schema.attr "c_d" Dtype.Int ]

type diff_case = {
  sel : Ast.select;
  rows_a : (int option * string) list;  (** c_b (NULL when None), c_c; c_a is the index. *)
  rows_b : int list;  (** c_d; c_a is the index. *)
  bind_x : bool;  (** bind :p_x (leaving :p_y always unbound). *)
}

let diff_gen =
  let open QCheck.Gen in
  let lit =
    oneof
      [
        map (fun n -> Ast.Lit (Value.Int n)) (int_range (-3) 20);
        oneofl
          [
            Ast.Lit (Value.Str "ab");
            Ast.Lit (Value.Str "ba");
            Ast.Lit (Value.Str "x");
            Ast.Lit Value.Null;
          ];
        oneofl [ Ast.Param "p_x"; Ast.Param "p_y" ];
      ]
  in
  let col =
    let name = oneofl [ "c_a"; "c_b"; "c_c"; "c_d" ] in
    oneof
      [
        map (fun c -> Ast.Col (None, c)) name;
        map (fun c -> Ast.Col (Some "t_a", c)) name;
      ]
  in
  let rec expr d =
    if d = 0 then oneof [ lit; col ]
    else
      frequency
        [
          (3, oneof [ lit; col ]);
          ( 4,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl
                 [
                   Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Eq; Ast.Neq; Ast.Lt;
                   Ast.Le; Ast.Gt; Ast.Ge; Ast.And; Ast.Or;
                 ])
              (expr (d - 1)) (expr (d - 1)) );
          (1, map (fun e -> Ast.Unop (Ast.Not, e)) (expr (d - 1)));
          (1, map (fun e -> Ast.Unop (Ast.Neg, e)) (expr (d - 1)));
          (1, map (fun e -> Ast.Is_null e) (expr (d - 1)));
          (1, map (fun e -> Ast.Is_not_null e) (expr (d - 1)));
          ( 1,
            let* e = expr (d - 1) in
            let* cands = list_size (int_range 1 3) (expr (d - 1)) in
            return (Ast.In (e, cands)) );
          ( 1,
            let* e = expr (d - 1) in
            let* lo = expr (d - 1) in
            let* hi = expr (d - 1) in
            return (Ast.Between (e, lo, hi)) );
          ( 1,
            let* e = expr (d - 1) in
            let* pat = oneofl [ "a%"; "%b%"; "_x"; "" ] in
            return (Ast.Like (e, pat)) );
          ( 1,
            let* c = expr (d - 1) in
            let* th = expr (d - 1) in
            let* el = opt (expr (d - 1)) in
            return (Ast.Case ([ (c, th) ], el)) );
        ]
  in
  let agg =
    let* a = oneofl [ Ast.Sum; Ast.Count; Ast.Min; Ast.Max; Ast.Avg ] in
    let* e = oneof [ return None; map Option.some (expr 1) ] in
    return (Ast.Agg (a, e))
  in
  let item =
    frequency
      [
        (1, return Ast.Star);
        (4, map (fun e -> Ast.Item (e, None)) (expr 2));
        (2, map (fun e -> Ast.Item (e, None)) agg);
      ]
  in
  let* items = list_size (int_range 1 3) item in
  let* from =
    oneofl
      [
        [ ("t_a", None) ];
        [ ("t_a", Some "a") ];
        [ ("t_b", None) ];
        [ ("t_a", None); ("t_b", Some "b") ];
      ]
  in
  let* where = opt (expr 2) in
  let* group_by =
    list_size (int_range 0 2)
      (map (fun c -> Ast.Col (None, c)) (oneofl [ "c_a"; "c_b"; "c_c"; "c_d" ]))
  in
  let* having =
    opt (oneof [ expr 1; map (fun e -> Ast.Binop (Ast.Gt, e, Ast.Lit (Value.Int 2))) agg ])
  in
  let* order_by = list_size (int_range 0 2) (pair (expr 1) (oneofl [ Ast.Asc; Ast.Desc ])) in
  let* distinct = bool in
  let* limit = opt (pair (int_range 0 10) (int_range 0 5)) in
  let* rows_a =
    list_size (int_range 0 8) (pair (opt (int_range 0 20)) (oneofl [ "ab"; "ba"; "x"; "yz" ]))
  in
  let* rows_b = list_size (int_range 0 6) (int_range 0 20) in
  let* bind_x = bool in
  return
    {
      sel = { Ast.distinct; items; from; where; group_by; having; order_by; limit };
      rows_a;
      rows_b;
      bind_x;
    }

let print_case case =
  Printf.sprintf "%s\n(t_a: %d rows, t_b: %d rows, p_x %s)"
    (Pp.statement_to_string (Ast.Select case.sel))
    (List.length case.rows_a) (List.length case.rows_b)
    (if case.bind_x then "bound" else "unbound")

let setup_diff_db case =
  let db = Database.create () in
  let ta = Database.create_table db "t_a" schema_a in
  List.iteri
    (fun i (b, c) ->
      let bv = match b with Some n -> Value.Int n | None -> Value.Null in
      ignore (Table.insert ta (Tuple.make schema_a [ Value.Int i; bv; Value.Str c ])))
    case.rows_a;
  let tb = Database.create_table db "t_b" schema_b in
  List.iteri
    (fun i d -> ignore (Table.insert tb (Tuple.make schema_b [ Value.Int i; Value.Int d ])))
    case.rows_b;
  db

let run_outcome f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

let qcheck_compiled_matches_interpreter =
  QCheck.Test.make ~name:"compiled plan = interpreter (random queries)" ~count:500
    (QCheck.make diff_gen ~print:print_case)
    (fun case ->
      let params = if case.bind_x then [ ("p_x", Value.Int 5) ] else [] in
      (* Separate databases so buffer-pool state cannot leak between runs. *)
      let interp =
        let db = setup_diff_db case in
        run_outcome (fun () -> Executor.query db ~params case.sel)
      in
      let compiled =
        let db = setup_diff_db case in
        run_outcome (fun () -> Plan.execute ~params (Plan.prepare db case.sel))
      in
      match (interp, compiled) with
      | Error _, Error _ -> true
      | Ok a, Ok b ->
        if a.Plan.columns = b.Plan.columns && a.Plan.rows = b.Plan.rows then true
        else
          QCheck.Test.fail_reportf "results differ:\ninterpreter:\n%a\ncompiled:\n%a"
            Plan.pp_result a Plan.pp_result b
      | Ok _, Error e ->
        QCheck.Test.fail_reportf "compiled failed where interpreter succeeded: %s" e
      | Error e, Ok _ ->
        QCheck.Test.fail_reportf "interpreter failed where compiled succeeded: %s" e)

(* The same differential over SQL text: a one-shot parse + prepare +
   execute against the interpreter. *)
let test_one_shot_plan_matches_query () =
  let case =
    {
      sel = Ast.select_all "t_a";
      rows_a = [ (Some 1, "ab"); (None, "ba"); (Some 7, "x") ];
      rows_b = [];
      bind_x = false;
    }
  in
  let db = setup_diff_db case in
  List.iter
    (fun src ->
      let via_plan = Fixtures.sql db src in
      let via_interp = Executor.query db (Parser.parse_select src) in
      Alcotest.(check bool) (Printf.sprintf "agree on %s" src) true
        (via_plan.Plan.columns = via_interp.Plan.columns
        && via_plan.Plan.rows = via_interp.Plan.rows))
    [
      "SELECT * FROM t_a";
      "SELECT c_a, c_b FROM t_a WHERE c_b IS NOT NULL ORDER BY c_a DESC";
      "SELECT c_c, COUNT(*), SUM(c_b) FROM t_a GROUP BY c_c ORDER BY c_c";
      "SELECT DISTINCT c_c FROM t_a";
      "SELECT c_a FROM t_a WHERE c_c LIKE '%b' LIMIT 1";
    ]

(* ------------------------------------------------------------------ *)
(* Streaming group accumulators vs the interpreter.                    *)
(* ------------------------------------------------------------------ *)

(* Each statement runs three ways — the interpreter, the generic table
   plan and the view plan over the same rows (the 2VNL reader path) — and
   all three must agree on the exact rows, their order and their labels,
   or all fail.  The data has a NULL, Int and Float inputs, strings, and a
   zero divisor confined to one group. *)
let acc_schema =
  Schema.make
    [
      Schema.attr ~key:true "k" Dtype.Int;
      Schema.attr "g" (Dtype.Str 4);
      Schema.attr "i" Dtype.Int;
      Schema.attr "f" Dtype.Float;
      Schema.attr "s" (Dtype.Str 6);
    ]

let acc_db () =
  let db = Database.create () in
  let t = Database.create_table db "m" acc_schema in
  List.iteri
    (fun k (g, i, f, str) ->
      ignore
        (Table.insert t
           (Tuple.make acc_schema [ Value.Int k; Value.Str g; i; Value.Float f; Value.Str str ])))
    [
      ("a", Value.Int 1, 1.5, "pear");
      ("a", Value.Int 2, 2.0, "apple");
      ("b", Value.Null, 0.5, "fig");
      ("b", Value.Int 4, 0.25, "kiwi");
      ("c", Value.Int 0, 3.0, "lime");
      ("c", Value.Int 3, 1.0, "date");
    ];
  (db, t)

let run_three src =
  let db, t = acc_db () in
  let sel = Parser.parse_select src in
  let interp = run_outcome (fun () -> Executor.query db sel) in
  let generic = run_outcome (fun () -> Plan.execute (Plan.prepare db sel)) in
  let rows = List.map snd (Table.to_list t) in
  let view =
    run_outcome (fun () -> Plan.execute_view (Plan.prepare_view ~label:"m" acc_schema sel) rows)
  in
  (interp, generic, view)

let check_agrees ~expect_ok src =
  let interp, generic, view = run_three src in
  let same a b =
    match (a, b) with
    | Ok (a : Plan.result), Ok (b : Plan.result) -> a.columns = b.columns && a.rows = b.rows
    | Error _, Error _ -> true
    | _ -> false
  in
  let show = function
    | Ok r -> Fmt.str "%a" Plan.pp_result r
    | Error e -> "error: " ^ e
  in
  Alcotest.(check bool) (src ^ ": interpreter outcome as expected") expect_ok (Result.is_ok interp);
  if not (same interp generic) then
    Alcotest.failf "%s\ninterpreter: %s\ngeneric plan: %s" src (show interp) (show generic);
  if not (same interp view) then
    Alcotest.failf "%s\ninterpreter: %s\nview plan: %s" src (show interp) (show view)

let test_accumulators_match_interpreter () =
  List.iter (check_agrees ~expect_ok:true)
    [
      (* HAVING drops the group whose output aggregate would fail: an
         argument error (division by zero) and a fold error (SUM of
         strings) are held in the accumulator and never read. *)
      "SELECT g, SUM(10 / i) FROM m GROUP BY g HAVING MIN(i) > 0";
      "SELECT g, SUM(CASE WHEN g = 'c' THEN s ELSE i END) FROM m GROUP BY g HAVING g <> 'c'";
      (* ORDER BY an aggregate, shared with and apart from the select list. *)
      "SELECT g, SUM(i) FROM m GROUP BY g ORDER BY SUM(i) DESC";
      "SELECT g FROM m GROUP BY g ORDER BY MAX(f), g";
      (* A global aggregate over empty input still yields its one row. *)
      "SELECT COUNT(*), COUNT(i), SUM(i), MIN(s), MAX(f), AVG(f) FROM m WHERE k > 100";
      (* SUM over Int and Float inputs: a left fold that leaves the int. *)
      "SELECT g, SUM(CASE WHEN i > 1 THEN f ELSE i END) FROM m GROUP BY g";
      "SELECT SUM(CASE WHEN k = 3 THEN f ELSE i END), SUM(i) FROM m";
      (* MIN and MAX over strings. *)
      "SELECT g, MIN(s), MAX(s) FROM m GROUP BY g";
      (* COUNT(col) skips NULLs; a star COUNT does not. *)
      "SELECT g, COUNT(i), COUNT(*) FROM m GROUP BY g";
      "SELECT g, AVG(i), AVG(f), AVG(k) FROM m GROUP BY g HAVING AVG(f) > 0.5";
      (* Non-aggregate leaves read the group's first row. *)
      "SELECT g, k, s FROM m GROUP BY g";
      "SELECT g, COUNT(*) FROM m WHERE i IS NOT NULL GROUP BY g HAVING COUNT(*) > 1";
    ];
  List.iter (check_agrees ~expect_ok:false)
    [
      (* The same failures surface once an output reads them. *)
      "SELECT g, SUM(10 / i) FROM m GROUP BY g";
      "SELECT g, SUM(s) FROM m GROUP BY g";
      "SELECT AVG(s) FROM m";
      "SELECT g, COUNT(*) FROM m GROUP BY g HAVING SUM(10 / i) > 0";
    ]

(* ------------------------------------------------------------------ *)
(* Plan revalidation across catalog changes.                          *)
(* ------------------------------------------------------------------ *)

let sales_schema =
  Schema.make
    [
      Schema.attr ~key:true "city" (Dtype.Str 20);
      Schema.attr ~key:true "day" Dtype.Int;
      Schema.attr ~updatable:true "total_sales" Dtype.Int;
    ]

let sales_db () =
  let db = Database.create () in
  let t = Database.create_table db "DailySales" sales_schema in
  List.iter
    (fun (c, d, s) ->
      ignore (Table.insert t (Tuple.make sales_schema [ Value.Str c; Value.Int d; Value.Int s ])))
    [
      ("San Jose", 1, 10000); ("San Jose", 2, 1500); ("Berkeley", 1, 12000);
      ("Novato", 1, 8000);
    ];
  db

let test_cache_invalidation_on_index_ddl () =
  let db = sales_db () in
  let sel =
    Parser.parse_select "SELECT total_sales FROM DailySales WHERE city = 'San Jose' ORDER BY day"
  in
  let p1 = Plan.prepare db sel in
  Alcotest.(check bool) "starts as a full scan" true (Plan.full_scan_only p1);
  Alcotest.(check bool) "fresh plan is valid" true (Plan.valid db p1);
  (* Index DDL bumps the table version: the held plan must not survive. *)
  Table.create_index (Database.table_exn db "DailySales") ~name:"by_city" [ "city" ];
  Alcotest.(check bool) "old plan invalidated" false (Plan.valid db p1);
  let p2 = Plan.prepare db sel in
  Alcotest.(check bool) "re-prepared plan is valid" true (Plan.valid db p2);
  Alcotest.(check bool) "new plan uses the index" false (Plan.full_scan_only p2);
  Alcotest.(check bool) "explains differ" true (Plan.explain p1 <> Plan.explain p2);
  match (Plan.execute p2).Plan.rows with
  | [ [ Value.Int 10000 ]; [ Value.Int 1500 ] ] -> ()
  | _ -> Alcotest.fail "index plan returned wrong rows"

let test_cache_invalidation_on_drop_recreate () =
  let db = Database.create () in
  let s = Schema.make [ Schema.attr ~key:true "a" Dtype.Int ] in
  let t = Database.create_table db "t" s in
  ignore (Table.insert t (Tuple.make s [ Value.Int 1 ]));
  ignore (Table.insert t (Tuple.make s [ Value.Int 2 ]));
  let sel = Parser.parse_select "SELECT a FROM t ORDER BY a" in
  let p1 = Plan.prepare db sel in
  check Alcotest.int "old table rows" 2 (List.length (Plan.execute p1).Plan.rows);
  Database.drop_table db "t";
  let t' = Database.create_table db "t" s in
  ignore (Table.insert t' (Tuple.make s [ Value.Int 7 ]));
  (* The old plan still points at the dropped table's heap; executing it
     would silently read stale pages. *)
  Alcotest.(check bool) "plan over the dropped table invalidated" false (Plan.valid db p1);
  match (Plan.execute (Plan.prepare db sel)).Plan.rows with
  | [ [ Value.Int 7 ] ] -> ()
  | _ -> Alcotest.fail "fresh plan did not read the new table"

(* ------------------------------------------------------------------ *)
(* Physical I/O parity: compilation is CPU-only.                       *)
(* ------------------------------------------------------------------ *)

let io_db () =
  (* Small pages so the table spans many of them and access paths matter. *)
  let db = Database.create ~page_size:256 ~pool_capacity:8 () in
  let s =
    Schema.make
      [
        Schema.attr ~key:true "id" Dtype.Int;
        Schema.attr "grp" Dtype.Int;
        Schema.attr ~updatable:true "v" Dtype.Int;
      ]
  in
  let t = Database.create_table db "t" s in
  for i = 1 to 300 do
    ignore (Table.insert t (Tuple.make s [ Value.Int i; Value.Int (i mod 7); Value.Int (i * 3) ]))
  done;
  db

let io_parity ~name db select params =
  let plan = Plan.prepare db select in
  Database.drop_cache db;
  Database.reset_io_stats db;
  let via_interp = Executor.query db ~params select in
  let s1 = Database.io_stats db in
  Database.drop_cache db;
  Database.reset_io_stats db;
  let via_plan = Plan.execute ~params plan in
  let s2 = Database.io_stats db in
  Alcotest.(check bool) (name ^ ": same rows") true (Plan.result_equal via_interp via_plan);
  check Alcotest.int (name ^ ": same logical reads")
    s1.Vnl_storage.Buffer_pool.logical_reads s2.Vnl_storage.Buffer_pool.logical_reads;
  check Alcotest.int (name ^ ": same physical reads") s1.Vnl_storage.Buffer_pool.misses
    s2.Vnl_storage.Buffer_pool.misses

let test_io_parity_full_scan () =
  let db = io_db () in
  io_parity ~name:"group-by scan" db
    (Parser.parse_select "SELECT grp, SUM(v) FROM t GROUP BY grp")
    []

let test_io_parity_index_scan () =
  let db = io_db () in
  Table.create_index (Database.table_exn db "t") ~name:"by_grp" [ "grp" ];
  io_parity ~name:"index probe" db
    (Parser.parse_select "SELECT SUM(v) FROM t WHERE grp = :g")
    [ ("g", Value.Int 3) ]

let test_io_parity_key_probe () =
  let db = io_db () in
  io_parity ~name:"unique-key probe" db
    (Parser.parse_select "SELECT v FROM t WHERE id = 123")
    []

(* An [Int] key probed with a [Float] of the same number: SQL equality
   holds ([Value.equal]), so the unique-key probe must hash the two alike
   and find the row a full scan with the same predicate finds. *)
let test_float_probe_of_int_key () =
  let db = io_db () in
  let s = Table.schema (Database.table_exn db "t") in
  let keyless =
    Schema.make (List.map (fun a -> { a with Schema.key = false }) (Schema.attributes s))
  in
  let scan = Database.create_table db "t_scan" keyless in
  Table.iter_tuples (Database.table_exn db "t") (fun tuple ->
      ignore (Table.insert scan (Tuple.make keyless (Tuple.values tuple))));
  let run table k =
    let select = Parser.parse_select (Printf.sprintf "SELECT v FROM %s WHERE id = :k" table) in
    let plan = Plan.prepare db select and params = [ ("k", k) ] in
    let via_plan = Plan.execute ~params plan in
    Alcotest.(check bool)
      (table ^ ": plan = interpreter")
      true
      (Plan.result_equal via_plan (Executor.query db ~params select));
    (Plan.explain plan, via_plan.Plan.rows)
  in
  let probe_int, by_int = run "t" (Value.Int 123) in
  let probe_float, by_float = run "t" (Value.Float 123.0) in
  let full_scan, by_scan = run "t_scan" (Value.Float 123.0) in
  check Alcotest.string "int probe path" "t: unique-key probe" probe_int;
  check Alcotest.string "float probe path" "t: unique-key probe" probe_float;
  Alcotest.(check bool) "scan path" true (probe_int <> full_scan);
  let rows = Alcotest.(list (list (of_pp Value.pp))) in
  check rows "full scan finds the row" [ [ Value.Int 369 ] ] by_scan;
  check rows "Int probe = full scan" by_scan by_int;
  check rows "Float probe = full scan" by_scan by_float

(* ------------------------------------------------------------------ *)
(* Statement shapes: literal-only variants share one reader plan.      *)
(* ------------------------------------------------------------------ *)

(* A 2VNL table with one column of each literal type.  [v] and [f] are
   updatable, so the §4.1 rewrite puts their WHERE literals under CASE. *)
let shape_schema =
  Schema.make
    [
      Schema.attr ~key:true "id" Dtype.Int;
      Schema.attr ~updatable:true "v" Dtype.Int;
      Schema.attr ~updatable:true "f" Dtype.Float;
      Schema.attr "s" (Dtype.Str 8);
      Schema.attr "d" Dtype.Date;
    ]

let shape_rows =
  [
    (1, -3, 1.0, "a", 14); (2, 1, 1.5, "it's", 14); (3, 3, -2.0, "'", 15);
    (4, 1, 0.25, "1", 15); (5, 0, 3.0, "ab", 16); (6, -2, 1.0, "a%b", 16);
    (7, 5, 2.5, "", 14); (8, 3, -0.5, "_", 17);
  ]

(* The loaded table, a session before and one after a committed
   maintenance transaction that updates and deletes rows. *)
let shape_warehouse () =
  let db = Database.create () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:"T" shape_schema);
  Twovnl.load_initial wh "T"
    (List.map
       (fun (id, v, f, s, d) ->
         Tuple.make shape_schema
           [ Value.Int id; Value.Int v; Value.Float f; Value.Str s; Value.date_of_mdy 10 d 96 ])
       shape_rows);
  let s1 = Twovnl.Session.begin_ wh in
  let m = Twovnl.Txn.begin_ wh in
  ignore
    (Twovnl.Txn.update_by_key m ~table:"T" ~key:[ Value.Int 2 ]
       ~set:[ ("v", Value.Int 3); ("f", Value.Float 1.0) ]);
  ignore
    (Twovnl.Txn.update_by_key m ~table:"T" ~key:[ Value.Int 5 ] ~set:[ ("v", Value.Int (-3)) ]);
  ignore (Twovnl.Txn.delete_by_key m ~table:"T" ~key:[ Value.Int 8 ]);
  Twovnl.Txn.commit m;
  let s2 = Twovnl.Session.begin_ wh in
  (db, wh, [ s1; s2 ])

(* The interpreter on the §4.1 rewrite of the text as written. *)
let interpret db wh s src =
  Executor.query db
    ~params:[ ("sessionVN", Value.Int (Twovnl.Session.vn s)) ]
    (Rewrite.reader_select ~lookup:(Twovnl.lookup wh) (Parser.parse_select src))

let same_outcome ~src a b =
  match (a, b) with
  | Error _, Error _ -> true
  | Ok a, Ok b ->
    Plan.result_equal a b
    || QCheck.Test.fail_reportf "%s\nresults differ:\ninterpreter:\n%a\nSession.query:\n%a" src
         Plan.pp_result a Plan.pp_result b
  | Ok _, Error e ->
    QCheck.Test.fail_reportf "%s\nSession.query failed where the interpreter succeeded: %s" src e
  | Error e, Ok _ ->
    QCheck.Test.fail_reportf "%s\ninterpreter failed where Session.query succeeded: %s" src e

(* A WHERE clause with holes: each instantiation fills the holes with
   literal texts, so every instantiation of one skeleton (and select) has
   one shape, and all but the first hit the plan compiled for it. *)
type skel =
  | Cmp of string * string  (** Column and operator: [col op ?]. *)
  | In of string * int  (** [col IN (?, ..)] with this many candidates. *)
  | Between of string
  | Like of string * string  (** The pattern stays in the shape. *)
  | Not of skel
  | And of skel * skel
  | Or of skel * skel

let rec holes = function
  | Cmp _ -> 1
  | Between _ -> 2
  | In (_, k) -> k
  | Like _ -> 0
  | Not a -> holes a
  | And (a, b) | Or (a, b) -> holes a + holes b

let render skel lits =
  let lits = ref lits in
  let next () =
    match !lits with
    | l :: rest ->
      lits := rest;
      l
    | [] -> assert false
  in
  let rec go = function
    | Cmp (c, op) -> Printf.sprintf "%s %s %s" c op (next ())
    | In (c, k) ->
      Printf.sprintf "%s IN (%s)" c (String.concat ", " (List.init k (fun _ -> next ())))
    | Between c ->
      let lo = next () in
      Printf.sprintf "%s BETWEEN %s AND %s" c lo (next ())
    | Like (c, pat) -> Printf.sprintf "%s LIKE %s" c pat
    | Not a -> Printf.sprintf "NOT (%s)" (go a)
    | And (a, b) ->
      let a = go a in
      Printf.sprintf "(%s AND %s)" a (go b)
    | Or (a, b) ->
      let a = go a in
      Printf.sprintf "(%s OR %s)" a (go b)
  in
  go skel

let shape_selects =
  [|
    ("SELECT id, v, f, s, d FROM T WHERE ", "");
    ("SELECT COUNT(*), SUM(v) FROM T WHERE ", "");
    ("SELECT s, COUNT(*) FROM T WHERE ", " GROUP BY s HAVING COUNT(*) > 0 ORDER BY s");
    ("SELECT * FROM T WHERE ", " ORDER BY id DESC LIMIT 4");
  |]

let literal_gen =
  let open QCheck.Gen in
  oneof
    [
      map string_of_int (int_range (-5) 8);
      oneofl
        [
          "1"; "3"; "-3"; "1.0"; "1.5"; "-2.0"; "0.25"; "3.0"; "'1'"; "'a'"; "'it''s'";
          "''''"; "''"; "'ab'"; "DATE '10/14/96'"; "DATE '1996-10-15'"; "DATE '10/16/96'";
          "DATE '1996-10-17'";
        ];
    ]

let skel_gen =
  let open QCheck.Gen in
  let column = oneofl [ "id"; "v"; "f"; "s"; "d" ] in
  let leaf =
    oneof
      [
        map2 (fun c op -> Cmp (c, op)) column (oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ]);
        map2 (fun c k -> In (c, k)) column (int_range 1 4);
        map (fun c -> Between c) column;
        map2
          (fun c p -> Like (c, p))
          (oneofl [ "s"; "v" ])
          (oneofl [ "'a%'"; "'%''%'"; "'_'"; "'1'" ]);
      ]
  in
  int_range 0 2
  >>= fix (fun self n ->
          if n = 0 then leaf
          else
            frequency
              [
                (2, leaf);
                (1, map (fun a -> Not a) (self (n - 1)));
                (2, map2 (fun a b -> And (a, b)) (self (n - 1)) (self (n - 1)));
                (1, map2 (fun a b -> Or (a, b)) (self (n - 1)) (self (n - 1)));
              ])

(* One select and skeleton, instantiated three times. *)
let shape_case_gen =
  let open QCheck.Gen in
  oneofa shape_selects >>= fun (head, tail) ->
  skel_gen >>= fun skel ->
  list_repeat 3 (list_repeat (holes skel) literal_gen)
  >|= List.map (fun lits -> head ^ render skel lits ^ tail)

let qcheck_shapes_match_interpreter =
  QCheck.Test.make ~name:"Session.query on literal texts = interpreter (shared shapes)"
    ~count:300
    (QCheck.make shape_case_gen ~print:(String.concat "\n"))
    (fun texts ->
      let db, wh, sessions = shape_warehouse () in
      List.for_all
        (fun src ->
          List.for_all
            (fun s ->
              same_outcome ~src
                (run_outcome (fun () -> interpret db wh s src))
                (run_outcome (fun () -> Twovnl.Session.query wh s src)))
            sessions)
        texts)

let counter name = Obs.Counter.get (Obs.Registry.counter name)

let with_obs f =
  let was = !Obs.enabled in
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := was) f

let test_literal_variants_share_a_plan () =
  with_obs @@ fun () ->
  let _, wh, sessions = shape_warehouse () in
  let s = List.nth sessions 1 in
  let q src = ignore (Twovnl.Session.query wh s src) in
  let h0 = counter "twovnl.reader_plan_hits" and m0 = counter "twovnl.reader_plan_misses" in
  q "SELECT v FROM T WHERE id = 1 AND s <> 'a'";
  q "SELECT v FROM T WHERE id = 4 AND s <> 'it''s'";
  check Alcotest.int "one miss for both texts" (m0 + 1) (counter "twovnl.reader_plan_misses");
  check Alcotest.int "the second text hits" (h0 + 1) (counter "twovnl.reader_plan_hits");
  q "SELECT v FROM T WHERE id = 2.0 AND s <> DATE '10/14/96'";
  check Alcotest.int "other literal types hit too" (h0 + 2) (counter "twovnl.reader_plan_hits");
  check Alcotest.int "one entry cached" 1 (Twovnl.reader_plan_count wh);
  (* Literals outside the WHERE clause are part of the shape. *)
  q "SELECT v + 1 FROM T WHERE id = 1 AND s <> 'a'";
  q "SELECT v + 2 FROM T WHERE id = 1 AND s <> 'a'";
  check Alcotest.int "select-list literals are kept" (m0 + 3)
    (counter "twovnl.reader_plan_misses")

(* [= 1], [= 1.0] and [= '1'] share one plan but keep their literal's
   type: on the key (a unique-key probe) and on plain columns. *)
let test_literal_types_kept () =
  let db, wh, sessions = shape_warehouse () in
  let s = List.nth sessions 1 in
  let rows = Alcotest.(list (list (of_pp Value.pp))) in
  List.iter
    (fun (src, want) ->
      let got = Twovnl.Session.query wh s src in
      Alcotest.(check bool) (src ^ " = interpreter") true
        (Plan.result_equal got (interpret db wh s src));
      check rows src want (Plan.sort_rows got).Plan.rows)
    [
      ("SELECT s FROM T WHERE id = 4", [ [ Value.Str "1" ] ]);
      ("SELECT s FROM T WHERE id = 4.0", [ [ Value.Str "1" ] ]);
      ("SELECT s FROM T WHERE id = '4'", []);
      ("SELECT id FROM T WHERE v = 1", [ [ Value.Int 4 ] ]);
      ("SELECT id FROM T WHERE v = 1.0", [ [ Value.Int 4 ] ]);
      ("SELECT id FROM T WHERE v = '1'", []);
      ("SELECT id FROM T WHERE s = '1'", [ [ Value.Int 4 ] ]);
      ("SELECT id FROM T WHERE s = 1", []);
    ]

(* A text holding a literal the lexer or parser rejects raises the
   parser's own exception and message, even when a valid text of the same
   shape is cached. *)
let test_malformed_literals_raise () =
  let _, wh, sessions = shape_warehouse () in
  let s = List.nth sessions 1 in
  ignore (Twovnl.Session.query wh s "SELECT id FROM T WHERE v = 1");
  ignore (Twovnl.Session.query wh s "SELECT id FROM T WHERE s LIKE 'a%' AND v = 1 ORDER BY id");
  let raises src want =
    let want = Printexc.to_string want in
    (match Twovnl.Session.query wh s src with
    | _ -> Alcotest.failf "%s: no error" src
    | exception e -> check Alcotest.string src want (Printexc.to_string e));
    match Parser.parse_select src with
    | _ -> Alcotest.failf "%s: parsed" src
    | exception e -> check Alcotest.string (src ^ " (parser)") want (Printexc.to_string e)
  in
  raises "SELECT id FROM T WHERE d = DATE '13/45'"
    (Parser.Parse_error "malformed date literal \"13/45\"");
  raises "SELECT id FROM T WHERE v = 99999999999999999999" (Failure "int_of_string");
  raises "SELECT id FROM T WHERE s = 'ab" (Lexer.Lex_error ("unterminated string literal", 27));
  raises "SELECT id FROM T WHERE v = ?" (Lexer.Lex_error ("unexpected character '?'", 27));
  raises "SELECT id FROM T WHERE v = 1 2" (Parser.Parse_error "trailing input: INT(2)");
  raises "SELECT id FROM T WHERE s LIKE 5 AND v = 1 ORDER BY id"
    (Parser.Parse_error "expected pattern string after LIKE, found INT(5)");
  raises "SELECT id FROM T WHERE v = 1 ORDER BY 'x"
    (Lexer.Lex_error ("unterminated string literal", 38))

(* The wire probe's statement shape still compiles to a unique-key probe:
   its placeholders drive the probe as literals do. *)
let test_point_probe_shape_plans_a_probe () =
  let db = Database.create () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:"DailySales" Fixtures.daily_sales);
  let src =
    "SELECT total_sales FROM DailySales WHERE city = 'San Jose' AND state = 'CA' AND \
     product_line = 'golf equip' AND date = DATE '10/14/96'"
  in
  let key, literals = Option.get (Shape.normalize src) in
  check Alcotest.string "shape key"
    "SELECT total_sales FROM DailySales WHERE city = ? AND state = ? AND product_line = ? \
     AND date = ?"
    key;
  check
    Alcotest.(list (pair string (of_pp Value.pp)))
    "typed literals"
    [
      ("1", Value.Str "San Jose"); ("2", Value.Str "CA"); ("3", Value.Str "golf equip");
      ("4", Value.date_of_mdy 10 14 96);
    ]
    literals;
  let explain sel =
    Plan.explain (Plan.prepare db (Rewrite.reader_select ~lookup:(Twovnl.lookup wh) sel))
  in
  check Alcotest.string "shape plan" "DailySales: unique-key probe"
    (explain (Parser.parse_shape key));
  check Alcotest.string "literal plan" "DailySales: unique-key probe"
    (explain (Parser.parse_select src))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_compiled_matches_interpreter;
    Alcotest.test_case "one-shot plan = query on SQL text" `Quick test_one_shot_plan_matches_query;
    Alcotest.test_case "group accumulators = interpreter" `Quick
      test_accumulators_match_interpreter;
    Alcotest.test_case "index DDL invalidates cached plan" `Quick
      test_cache_invalidation_on_index_ddl;
    Alcotest.test_case "drop/recreate invalidates cached plan" `Quick
      test_cache_invalidation_on_drop_recreate;
    Alcotest.test_case "I/O parity: full scan" `Quick test_io_parity_full_scan;
    Alcotest.test_case "I/O parity: index scan" `Quick test_io_parity_index_scan;
    Alcotest.test_case "I/O parity: key probe" `Quick test_io_parity_key_probe;
    Alcotest.test_case "Float probe of an Int key = full scan" `Quick
      test_float_probe_of_int_key;
    QCheck_alcotest.to_alcotest qcheck_shapes_match_interpreter;
    Alcotest.test_case "literal-only variants share one reader plan" `Quick
      test_literal_variants_share_a_plan;
    Alcotest.test_case "shared shapes keep each literal's type" `Quick test_literal_types_kept;
    Alcotest.test_case "malformed literals raise the parser's errors" `Quick
      test_malformed_literals_raise;
    Alcotest.test_case "point-probe shape plans a unique-key probe" `Quick
      test_point_probe_shape_plans_a_probe;
  ]
