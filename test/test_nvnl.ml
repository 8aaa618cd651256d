(* The generalized (n > 2) reader visibility predicate against the
   full-history oracle.

   §5: a session opened at sessionVN stays valid while
   [currentVN - sessionVN + outstanding <= n - 1].  At n = 3 and n = 4 we
   drive a history of maintenance transactions, keep every session ever
   opened, and after each commit demand exact agreement: a session the
   predicate calls valid must read precisely the oracle's state at its
   version (both the engine extraction and the predicate itself), and a
   session the predicate calls expired must be refused with {!Expired}.
   A second group does the same around a multi-VN {!Twovnl.Txn}, where
   the outstanding term is what charges readers. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Twovnl = Vnl_core.Twovnl
module Batch = Vnl_core.Batch

let check = Alcotest.check

let table_name = "DailySales"

let key_of i day =
  [
    Value.Str (Printf.sprintf "City-%d" i);
    Value.Str "CA";
    Value.Str "golf equip";
    Value.date_of_mdy 10 day 96;
  ]

let row_of key sales = Tuple.make Fixtures.daily_sales (key @ [ Value.Int sales ])

let initial_rows = List.init 6 (fun i -> row_of (key_of i 13) 1000)

let build ~n =
  let db = Database.create ~pool_capacity:4 () in
  let vnl = Twovnl.init db in
  ignore (Twovnl.register_table vnl ~n ~name:table_name Fixtures.daily_sales);
  Twovnl.load_initial vnl table_name initial_rows;
  let oracle = Oracle.create Fixtures.daily_sales in
  Oracle.apply_txn oracle ~vn:1 (List.map (fun t -> Oracle.Ins t) initial_rows);
  (vnl, oracle)

let oracle_op = function
  | Batch.Insert t -> Oracle.Ins t
  | Batch.Update (k, a) -> Oracle.Upd (k, a)
  | Batch.Delete k -> Oracle.Del k

(* Transaction [j] of the history: adjust one survivor, insert a fresh
   group, retire the group inserted two transactions ago. *)
let ops_for j =
  Batch.Update (key_of (j mod 6) 13, [ (4, Value.Int (2000 + j)) ])
  :: Batch.Insert (row_of (key_of j 20) (100 + j))
  :: (if j >= 2 then [ Batch.Delete (key_of (j - 2) 20) ] else [])

(* A session the predicate blesses must agree with the oracle exactly; a
   session it rejects must raise.  [outstanding] is the live round's
   unpublished slot count (0 between transactions). *)
let check_sessions vnl oracle ~n ~outstanding sessions =
  let current = Vnl_core.Version_state.current_vn (Twovnl.version_state vnl) in
  List.iter
    (fun s ->
      let expect_valid = current - Twovnl.Session.vn s + outstanding <= n - 1 in
      check Alcotest.bool
        (Printf.sprintf "validity of session at vn %d (current %d, outstanding %d, n %d)"
           (Twovnl.Session.vn s) current outstanding n)
        expect_valid
        (Twovnl.Session.is_valid vnl s);
      if expect_valid then begin
        let rows = Twovnl.Session.read_table vnl s table_name in
        let expected = Oracle.visible oracle ~vn:(Twovnl.Session.vn s) in
        if not (Oracle.equal_views rows expected) then
          Alcotest.failf "session at vn %d saw %d rows, oracle has %d" (Twovnl.Session.vn s)
            (List.length rows) (List.length expected)
      end
      else
        match Twovnl.Session.read_table vnl s table_name with
        | _ -> Alcotest.failf "expired session at vn %d was served" (Twovnl.Session.vn s)
        | exception Twovnl.Expired _ -> ())
    sessions

let history_test ~n () =
  let vnl, oracle = build ~n in
  let sessions = ref [ Twovnl.Session.begin_ vnl ] in
  for j = 0 to 7 do
    let ops = ops_for j in
    let m = Twovnl.Txn.begin_ vnl in
    Oracle.apply_txn oracle ~vn:(Twovnl.Txn.vn m) (List.map oracle_op ops);
    ignore (Twovnl.Txn.apply_batch m ~table:table_name ops);
    Twovnl.Txn.commit m;
    ignore (Twovnl.collect_garbage vnl);
    check_sessions vnl oracle ~n ~outstanding:0 !sessions;
    sessions := Twovnl.Session.begin_ vnl :: !sessions
  done;
  (* The history must actually have exercised both sides of the predicate. *)
  let valid, stale = List.partition (Twovnl.Session.is_valid vnl) !sessions in
  check Alcotest.int (Printf.sprintf "n=%d keeps n-1 generations valid" n) (n - 1)
    (List.length valid - 1);
  Alcotest.(check bool) "older generations expired" true (List.length stale > 0);
  List.iter (Twovnl.Session.end_ vnl) !sessions

(* Mid-round, validity charges the outstanding (reserved but unpublished)
   VNs: at n = 4 a round of 3 stripes keeps a round-begin session valid
   throughout, while a session one generation older dies the moment the
   round begins — before any stripe publishes. *)
let test_round_outstanding_charges_readers () =
  let n = 4 in
  let vnl, oracle = build ~n in
  (* One committed transaction so an "older" session generation exists. *)
  let m = Twovnl.Txn.begin_ vnl in
  Oracle.apply_txn oracle ~vn:(Twovnl.Txn.vn m) (List.map oracle_op (ops_for 0));
  ignore (Twovnl.Txn.apply_batch m ~table:table_name (ops_for 0));
  Twovnl.Txn.commit m;
  let older = Twovnl.Session.begin_ vnl in
  let m = Twovnl.Txn.begin_ vnl in
  Oracle.apply_txn oracle ~vn:(Twovnl.Txn.vn m) (List.map oracle_op (ops_for 1));
  ignore (Twovnl.Txn.apply_batch m ~table:table_name (ops_for 1));
  Twovnl.Txn.commit m;
  let at_round_begin = Twovnl.Session.begin_ vnl in
  check_sessions vnl oracle ~n ~outstanding:0 [ older; at_round_begin ];
  let round = Twovnl.Txn.begin_ vnl ~count:3 in
  (* No stripe has written or published anything, yet [older] (1 behind +
     3 outstanding > n - 1) is already gone; the round-begin session (0
     behind + 3 outstanding = n - 1) holds. *)
  check_sessions vnl oracle ~n ~outstanding:3 [ older; at_round_begin ];
  for i = 0 to 2 do
    let ops = [ Batch.Update (key_of i 13, [ (4, Value.Int (7000 + i)) ]) ] in
    let h = Twovnl.handle_exn vnl table_name in
    ignore (Batch.apply (Twovnl.ext h) (Twovnl.table h) ~vn:(Twovnl.Txn.vn round) ops);
    Oracle.apply_txn oracle ~vn:(Twovnl.Txn.vn round) (List.map oracle_op ops);
    Twovnl.Txn.publish round;
    (* Publishing trades one outstanding slot for one VN of distance: the
       round-begin session stays exactly at the validity boundary and must
       keep reading its own version's state. *)
    check_sessions vnl oracle ~n ~outstanding:(2 - i) [ older; at_round_begin ]
  done;
  List.iter (Twovnl.Session.end_ vnl) [ older; at_round_begin ]

let suite =
  [
    Alcotest.test_case "n=3 history agrees with oracle at every valid session" `Quick
      (history_test ~n:3);
    Alcotest.test_case "n=4 history agrees with oracle at every valid session" `Quick
      (history_test ~n:4);
    Alcotest.test_case "round outstanding VNs charge the validity predicate" `Quick
      test_round_outstanding_charges_readers;
  ]
