(* Property tests: random maintenance histories driven through the 2VNL/nVNL
   facade are checked, version by version, against the full-history Oracle.
   This is the serializability heart of the reproduction: every reader view
   inside the algorithm's version window must equal the committed snapshot. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Twovnl = Vnl_core.Twovnl
module Reader = Vnl_core.Reader
module Schema_ext = Vnl_core.Schema_ext
module Gc = Vnl_core.Gc
module Xorshift = Vnl_util.Xorshift

let kv_schema =
  Schema.make [ Schema.attr ~key:true "id" Dtype.Int; Schema.attr ~updatable:true "v" Dtype.Int ]

let kv id v = Tuple.make kv_schema [ Value.Int id; Value.Int v ]

type scenario_result = {
  mismatches : string list;
  committed_vns : int list;
}

(* Drive [txns] random maintenance transactions (some aborted) over a fresh
   warehouse with n-version tuples, mirroring every logical operation into
   the oracle, then compare all in-window views. *)
let run_scenario ~seed ~n ~txns ~check_gc =
  let rng = Xorshift.create seed in
  let db = Database.create () in
  let wh = Twovnl.init db in
  let handle = Twovnl.register_table wh ~n ~name:"T" kv_schema in
  let oracle = Oracle.create kv_schema in
  let mismatches = ref [] in
  let committed = ref [] in
  (* Track live and previously-existing-but-deleted keys for generation. *)
  let next_key = ref 0 in
  let fresh_key () =
    incr next_key;
    !next_key
  in
  for _txn = 1 to txns do
    let m = Twovnl.Txn.begin_ wh in
    let vn = Twovnl.Txn.vn m in
    let live = ref (Oracle.live_keys oracle ~vn:(vn - 1)) in
    let dead = ref (Oracle.dead_keys oracle ~vn:(vn - 1)) in
    let ops = ref [] in
    let emit op = ops := op :: !ops in
    let key_of_int k = [ Value.Int k ] in
    let int_of_key = function [ Value.Int k ] -> k | _ -> assert false in
    let nops = Xorshift.int rng 8 in
    for _op = 1 to nops do
      let choice = Xorshift.int rng 10 in
      if choice < 4 || (!live = [] && !dead = []) then begin
        (* Fresh insert. *)
        let k = fresh_key () in
        let v = Xorshift.int rng 1000 in
        Twovnl.Txn.insert m ~table:"T" [ Value.Int k; Value.Int v ];
        emit (Oracle.Ins (kv k v));
        live := key_of_int k :: !live
      end
      else if choice < 6 && !dead <> [] then begin
        (* Insert over a deleted key (Table 2 rows 1-2). *)
        let key = Xorshift.pick_list rng !dead in
        let v = Xorshift.int rng 1000 in
        Twovnl.Txn.insert m ~table:"T" [ List.hd key; Value.Int v ];
        emit (Oracle.Ins (kv (int_of_key key) v));
        dead := List.filter (fun k -> k <> key) !dead;
        live := key :: !live
      end
      else if choice < 8 && !live <> [] then begin
        let key = Xorshift.pick_list rng !live in
        let v = Xorshift.int rng 1000 in
        let hit = Twovnl.Txn.update_by_key m ~table:"T" ~key ~set:[ ("v", Value.Int v) ] in
        if not hit then mismatches := "update_by_key missed a live key" :: !mismatches;
        emit (Oracle.Upd (key, [ (1, Value.Int v) ]))
      end
      else if !live <> [] then begin
        let key = Xorshift.pick_list rng !live in
        let hit = Twovnl.Txn.delete_by_key m ~table:"T" ~key in
        if not hit then mismatches := "delete_by_key missed a live key" :: !mismatches;
        emit (Oracle.Del key);
        live := List.filter (fun k -> k <> key) !live;
        dead := key :: !dead
      end
    done;
    if Xorshift.chance rng 0.25 then begin
      ignore (Twovnl.Txn.abort m)
      (* Oracle does not record the aborted transaction. *)
    end
    else begin
      Twovnl.Txn.commit m;
      Oracle.apply_txn oracle ~vn (List.rev !ops);
      committed := vn :: !committed
    end;
    (* Compare every view inside the n-version window. *)
    let current = Twovnl.current_vn wh in
    let lowest = max 1 (current - (n - 1) + 1) in
    for s = lowest to current do
      let via_vnl =
        try
          Some
            (Oracle.normalize
               (Reader.visible_relation (Twovnl.ext handle) ~session_vn:s (Twovnl.table handle)))
        with Reader.Session_expired _ -> None
      in
      match via_vnl with
      | None ->
        mismatches :=
          Printf.sprintf "unexpected expiry at s=%d current=%d n=%d" s current n :: !mismatches
      | Some view ->
        let expected = Oracle.visible oracle ~vn:s in
        if not (Oracle.equal_views view expected) then
          mismatches :=
            Printf.sprintf "view mismatch at s=%d current=%d n=%d (%d vs %d tuples)" s current n
              (List.length view) (List.length expected)
            :: !mismatches
    done;
    if check_gc && Xorshift.chance rng 0.3 then begin
      (* GC at the tightest legal horizon must not disturb in-window views. *)
      let horizon = max 1 (Twovnl.current_vn wh - (n - 1) + 1) in
      ignore (Gc.collect (Twovnl.ext handle) (Twovnl.table handle) ~min_session_vn:horizon);
      let current = Twovnl.current_vn wh in
      for s = horizon to current do
        let view =
          Oracle.normalize
            (Reader.visible_relation (Twovnl.ext handle) ~session_vn:s (Twovnl.table handle))
        in
        if not (Oracle.equal_views view (Oracle.visible oracle ~vn:s)) then
          mismatches := Printf.sprintf "gc broke view at s=%d" s :: !mismatches
      done
    end
  done;
  { mismatches = !mismatches; committed_vns = List.rev !committed }

let scenario_test ~name ~n ~check_gc =
  QCheck.Test.make ~name ~count:60
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      let r = run_scenario ~seed ~n ~txns:8 ~check_gc in
      match r.mismatches with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_report m)

let qcheck_2vnl = scenario_test ~name:"2VNL views = oracle (random histories)" ~n:2 ~check_gc:false

let qcheck_3vnl = scenario_test ~name:"3VNL views = oracle (random histories)" ~n:3 ~check_gc:false

let qcheck_4vnl_gc =
  scenario_test ~name:"4VNL views = oracle, with GC interleaved" ~n:4 ~check_gc:true

let qcheck_2vnl_gc =
  scenario_test ~name:"2VNL views = oracle, with GC interleaved" ~n:2 ~check_gc:true

(* Rollback property: an aborted transaction leaves all in-window views
   exactly where they were (run_scenario checks views after aborts too,
   since the comparison runs for every transaction, committed or not). *)
let qcheck_many_txns_long_run =
  QCheck.Test.make ~name:"long history stays consistent" ~count:10
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      let r = run_scenario ~seed ~n:3 ~txns:30 ~check_gc:true in
      r.mismatches = [])

(* SQL rewrite equivalence on random 2VNL states. *)
let qcheck_sql_rewrite_equivalence =
  QCheck.Test.make ~name:"SQL rewrite = engine extraction (random states)" ~count:40
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Xorshift.create seed in
      let db = Database.create () in
      let wh = Twovnl.init db in
      let handle = Twovnl.register_table wh ~name:"T" kv_schema in
      Twovnl.load_initial wh "T"
        (List.init 5 (fun i -> kv (i + 1) (Xorshift.int rng 100)));
      (* One committed txn, one active txn. *)
      let bump () =
        let m = Twovnl.Txn.begin_ wh in
        for _ = 1 to Xorshift.int rng 5 do
          let k = 1 + Xorshift.int rng 5 in
          if Xorshift.bool rng then
            ignore
              (Twovnl.Txn.update_by_key m ~table:"T" ~key:[ Value.Int k ]
                 ~set:[ ("v", Value.Int (Xorshift.int rng 100)) ])
          else ignore (Twovnl.Txn.delete_by_key m ~table:"T" ~key:[ Value.Int k ])
        done;
        m
      in
      Twovnl.Txn.commit (bump ());
      let _active = bump () in
      let ok = ref true in
      List.iter
        (fun s ->
          let via_sql =
            Vnl_query.Executor.query db
              ~params:[ ("sessionVN", Value.Int s) ]
              (Vnl_core.Rewrite.reader_select ~lookup:(Twovnl.lookup wh)
                 (Vnl_sql.Parser.parse_select "SELECT id, v FROM T"))
          in
          let via_engine =
            List.map Tuple.values
              (Reader.visible_relation (Twovnl.ext handle) ~session_vn:s (Twovnl.table handle))
          in
          let norm rows = List.sort compare (List.map (List.map Value.to_string) rows) in
          if norm via_sql.Vnl_query.Executor.rows <> norm via_engine then ok := false)
        [ 2; 3 ];
      !ok)

(* Differential: the compiled reader path (Session.query — plan cache plus
   the §4.1 fast path) must return exactly what the interpreter returns for
   the same rewritten statement, for every live session VN over random
   2VNL states. *)
let qcheck_session_query_matches_interpreter =
  QCheck.Test.make ~name:"Session.query (compiled) = interpreter (random states)" ~count:40
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Xorshift.create seed in
      let db = Database.create () in
      let wh = Twovnl.init db in
      Twovnl.register_table wh ~name:"T" kv_schema |> ignore;
      Twovnl.load_initial wh "T" (List.init 6 (fun i -> kv (i + 1) (Xorshift.int rng 100)));
      let s1 = Twovnl.Session.begin_ wh in
      let m = Twovnl.Txn.begin_ wh in
      for _ = 1 to 1 + Xorshift.int rng 4 do
        let k = 1 + Xorshift.int rng 6 in
        if Xorshift.bool rng then
          ignore
            (Twovnl.Txn.update_by_key m ~table:"T" ~key:[ Value.Int k ]
               ~set:[ ("v", Value.Int (Xorshift.int rng 100)) ])
        else ignore (Twovnl.Txn.delete_by_key m ~table:"T" ~key:[ Value.Int k ])
      done;
      Twovnl.Txn.commit m;
      let s2 = Twovnl.Session.begin_ wh in
      let queries =
        [
          ("SELECT id, v FROM T", []);
          ("SELECT id, v FROM T WHERE v >= :lo", [ ("lo", Value.Int (Xorshift.int rng 100)) ]);
          ("SELECT SUM(v) FROM T", []);
          ("SELECT id FROM T WHERE id IN (1, 3, 5) ORDER BY id DESC", []);
          ("SELECT COUNT(*), MIN(v), MAX(v) FROM T WHERE id BETWEEN 2 AND 5", []);
        ]
      in
      List.for_all
        (fun s ->
          List.for_all
            (fun (src, params) ->
              let via_session = Twovnl.Session.query ~params wh s src in
              let via_interp =
                Vnl_query.Executor.query db
                  ~params:(("sessionVN", Value.Int (Twovnl.Session.vn s)) :: params)
                  (Vnl_core.Rewrite.reader_select ~lookup:(Twovnl.lookup wh)
                     (Vnl_sql.Parser.parse_select src))
              in
              Vnl_query.Plan.result_equal via_session via_interp)
            queries)
        [ s1; s2 ])

(* Deterministic soak runs: long histories with aborts and GC, verified
   against the oracle at every step. *)
let soak ~seed ~n ~txns () =
  let r = run_scenario ~seed ~n ~txns ~check_gc:true in
  match r.mismatches with
  | [] -> Alcotest.(check bool) "committed transactions" true (r.committed_vns <> [])
  | m :: _ -> Alcotest.fail m

let suite =
  [
    Alcotest.test_case "soak: 2VNL, 150 txns" `Quick (soak ~seed:1234 ~n:2 ~txns:150);
    Alcotest.test_case "soak: 3VNL, 150 txns" `Quick (soak ~seed:987 ~n:3 ~txns:150);
    Alcotest.test_case "soak: 5VNL, 80 txns" `Quick (soak ~seed:555 ~n:5 ~txns:80);
    QCheck_alcotest.to_alcotest qcheck_2vnl;
    QCheck_alcotest.to_alcotest qcheck_3vnl;
    QCheck_alcotest.to_alcotest qcheck_4vnl_gc;
    QCheck_alcotest.to_alcotest qcheck_2vnl_gc;
    QCheck_alcotest.to_alcotest qcheck_many_txns_long_run;
    QCheck_alcotest.to_alcotest qcheck_sql_rewrite_equivalence;
    QCheck_alcotest.to_alcotest qcheck_session_query_matches_interpreter;
  ]
