(* Tests for the warehouse layer: view definitions, delta aggregation,
   incremental summary maintenance vs. full recomputation. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module View_def = Vnl_warehouse.View_def
module Delta = Vnl_warehouse.Delta
module Source = Vnl_warehouse.Source
module Warehouse = Vnl_warehouse.Warehouse
module Twovnl = Vnl_core.Twovnl
module Sales_gen = Vnl_workload.Sales_gen
module Xorshift = Vnl_util.Xorshift

let check = Alcotest.check

let sale city pl day amount =
  Tuple.make Sales_gen.sales_schema
    [ Value.Str city; Value.Str "CA"; Value.Str pl; Sales_gen.date_of_day day; Value.Int amount ]

let view = Sales_gen.daily_sales_view ()

let test_view_target_schema () =
  let target = View_def.target_schema view in
  check (Alcotest.list Alcotest.string) "columns"
    [ "city"; "state"; "product_line"; "date"; "total_sales"; "row_count" ]
    (Schema.names target);
  check (Alcotest.list Alcotest.int) "key" [ 0; 1; 2; 3 ] (Schema.key_indices target);
  check (Alcotest.list Alcotest.int) "updatable aggregates" [ 4; 5 ]
    (Schema.updatable_indices target)

let test_view_without_count_matches_paper () =
  let v = Sales_gen.daily_sales_view ~with_count:false () in
  let target = View_def.target_schema v in
  (* Without the hidden count, the schema is exactly the paper's DailySales:
     42 bytes per tuple (Figure 3). *)
  check Alcotest.int "42 bytes" 42 (Schema.width target)

let test_view_rejects_bad_defs () =
  let expect_invalid f =
    Alcotest.(check bool) "raises" true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  expect_invalid (fun () ->
      View_def.make ~name:"v" ~source:Sales_gen.sales_schema ~group_by:[]
        ~aggregates:[ ("s", View_def.Sum "amount") ] ());
  expect_invalid (fun () ->
      View_def.make ~name:"v" ~source:Sales_gen.sales_schema ~group_by:[ "nope" ]
        ~aggregates:[] ());
  expect_invalid (fun () ->
      View_def.make ~name:"v" ~source:Sales_gen.sales_schema ~group_by:[ "city" ]
        ~aggregates:[ ("s", View_def.Sum "city") ] ())

let test_delta_netting () =
  let s1 = sale "San Jose" "golf equip" 0 100 in
  let s2 = sale "San Jose" "golf equip" 0 50 in
  let s3 = sale "Berkeley" "tennis" 0 75 in
  let deltas = Delta.net_group_deltas view [ Insert s1; Insert s2; Insert s3; Delete s2 ] in
  check Alcotest.int "two groups" 2 (List.length deltas);
  let sj = List.hd deltas in
  Alcotest.(check bool) "net sum 100" true
    (Value.equal (List.hd sj.Delta.agg_delta) (Value.Int 100));
  check Alcotest.int "net count 1" 1 sj.Delta.count_delta

let test_delta_update_is_delete_plus_insert () =
  let old_sale = sale "San Jose" "golf equip" 0 100 in
  let new_sale = sale "San Jose" "golf equip" 0 140 in
  match Delta.net_group_deltas view [ Update (old_sale, new_sale) ] with
  | [ d ] ->
    Alcotest.(check bool) "sum +40" true (Value.equal (List.hd d.Delta.agg_delta) (Value.Int 40));
    check Alcotest.int "count 0" 0 d.Delta.count_delta
  | _ -> Alcotest.fail "one group expected"

let test_delta_cancelling_batch_drops_group () =
  let s1 = sale "San Jose" "golf equip" 0 100 in
  check Alcotest.int "no net change" 0
    (List.length (Delta.net_group_deltas view [ Insert s1; Delete s1 ]))

let test_source_apply_and_recompute () =
  let src = Source.create Sales_gen.sales_schema in
  Source.apply src
    [ Insert (sale "San Jose" "golf equip" 0 100);
      Insert (sale "San Jose" "golf equip" 0 50);
      Insert (sale "Berkeley" "tennis" 1 75) ];
  check Alcotest.int "rows" 3 (Source.row_count src);
  let computed = Source.compute_view src view in
  check Alcotest.int "two groups" 2 (List.length computed);
  let target = View_def.target_schema view in
  let sj =
    List.find
      (fun t -> Value.equal (Tuple.get_by_name target t "city") (Value.Str "San Jose"))
      computed
  in
  Alcotest.(check bool) "sum 150" true
    (Value.equal (Tuple.get_by_name target sj "total_sales") (Value.Int 150));
  Alcotest.(check bool) "count 2" true
    (Value.equal (Tuple.get_by_name target sj "row_count") (Value.Int 2))

let test_source_delete_absent_rejected () =
  let src = Source.create Sales_gen.sales_schema in
  Alcotest.(check bool) "raises" true
    (try Source.apply src [ Delete (sale "X" "y" 0 1) ]; false
     with Invalid_argument _ -> true)

let sorted_view rows = List.sort Tuple.compare rows

let refresh_and_compare wh =
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let got = Warehouse.read_view wh s "DailySales" in
  Warehouse.end_session wh s;
  let expected = Warehouse.expected_view wh "DailySales" in
  Alcotest.(check bool) "incremental = recompute" true
    (List.equal Tuple.equal (sorted_view got) (sorted_view expected))

(* A batch whose last change names an absent row is rejected whole: the
   earlier insert, delete and update in it must not reach the source, and
   nothing may be queued, or ground truth drifts from every refresh after. *)
let test_queue_changes_all_or_nothing () =
  let wh = Warehouse.create [ view ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    [ Insert (sale "San Jose" "golf equip" 0 100); Insert (sale "Berkeley" "tennis" 1 75) ];
  let src = Warehouse.source wh "DailySales" in
  let rows = Source.rows src
  and pending = Warehouse.pending wh ~view:"DailySales"
  and expected = Warehouse.expected_view wh "DailySales" in
  let batch =
    [
      Delta.Insert (sale "Novato" "rollerblades" 2 60);
      Delta.Delete (sale "Berkeley" "tennis" 1 75);
      Delta.Update (sale "San Jose" "golf equip" 0 100, sale "San Jose" "golf equip" 0 130);
      Delta.Delete (sale "Fresno" "camping" 3 10);
    ]
  in
  Alcotest.(check bool) "absent row rejected" true
    (try Warehouse.queue_changes wh ~view:"DailySales" batch; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "source rows unchanged" true (List.equal Tuple.equal rows (Source.rows src));
  check Alcotest.int "nothing queued" pending (Warehouse.pending wh ~view:"DailySales");
  Alcotest.(check bool) "expected view unchanged" true
    (List.equal Tuple.equal expected (Warehouse.expected_view wh "DailySales"));
  refresh_and_compare wh


let test_float_aggregates () =
  let src_schema =
    Schema.make [ Schema.attr "grp" (Dtype.Str 4); Schema.attr "x" Dtype.Float ]
  in
  let v =
    View_def.make ~name:"F" ~source:src_schema ~group_by:[ "grp" ]
      ~aggregates:[ ("total", View_def.Sum "x") ]
      ()
  in
  let wh = Warehouse.create [ v ] in
  let row g x = Tuple.make src_schema [ Value.Str g; Value.Float x ] in
  Warehouse.queue_changes wh ~view:"F"
    [ Insert (row "a" 1.5); Insert (row "a" 2.25); Insert (row "b" 10.0) ];
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let target = View_def.target_schema v in
  let rows = Warehouse.read_view wh s "F" in
  let total g =
    List.find_map
      (fun t ->
        if Value.equal (Tuple.get_by_name target t "grp") (Value.Str g) then
          Some (Tuple.get_by_name target t "total")
        else None)
      rows
  in
  (match total "a" with
  | Some (Value.Float f) -> Alcotest.(check (float 1e-9)) "a sums" 3.75 f
  | _ -> Alcotest.fail "a missing");
  match total "b" with
  | Some (Value.Float f) -> Alcotest.(check (float 1e-9)) "b sums" 10.0 f
  | _ -> Alcotest.fail "b missing"

let test_incremental_matches_recompute () =
  let wh = Warehouse.create [ view ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    [ Insert (sale "San Jose" "golf equip" 0 100);
      Insert (sale "San Jose" "golf equip" 1 50);
      Insert (sale "Berkeley" "tennis" 0 75) ];
  refresh_and_compare wh;
  (* A second refresh with mixed changes, including a full group removal. *)
  Warehouse.queue_changes wh ~view:"DailySales"
    [ Delete (sale "Berkeley" "tennis" 0 75);
      Update (sale "San Jose" "golf equip" 0 100, sale "San Jose" "golf equip" 0 130);
      Insert (sale "Novato" "rollerblades" 2 60) ];
  refresh_and_compare wh

(* The outcome counts groups, not physical actions: under 2VNL a group
   dropped to zero support is usually an in-place update carrying the
   delete mark, and must still be reported as deleted. *)
let test_group_disappears_at_zero_support ~workers () =
  let wh = Warehouse.create ~n:(workers + 1) [ view ] in
  Warehouse.queue_changes wh ~view:"DailySales" [ Insert (sale "Berkeley" "tennis" 0 75) ];
  ignore (Warehouse.refresh ~workers wh);
  Warehouse.queue_changes wh ~view:"DailySales" [ Delete (sale "Berkeley" "tennis" 0 75) ];
  let outcomes = Warehouse.refresh ~workers wh in
  (match outcomes with
  | [ o ] -> check Alcotest.int "group deleted" 1 o.Vnl_warehouse.Summary.groups_deleted
  | _ -> Alcotest.fail "one view");
  let s = Warehouse.begin_session wh in
  check Alcotest.int "view empty" 0 (List.length (Warehouse.read_view wh s "DailySales"))

let test_reader_isolated_during_refresh () =
  let wh = Warehouse.create [ view ] in
  Warehouse.queue_changes wh ~view:"DailySales" [ Insert (sale "San Jose" "golf equip" 0 100) ];
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  Warehouse.queue_changes wh ~view:"DailySales" [ Insert (sale "San Jose" "golf equip" 0 11) ];
  ignore (Warehouse.refresh wh);
  (* The session began before the refresh and must still see the old sum. *)
  let rows = Warehouse.read_view wh s "DailySales" in
  let target = View_def.target_schema view in
  (match rows with
  | [ t ] ->
    Alcotest.(check bool) "old sum" true
      (Value.equal (Tuple.get_by_name target t "total_sales") (Value.Int 100))
  | _ -> Alcotest.fail "one group");
  let s2 = Warehouse.begin_session wh in
  match Warehouse.read_view wh s2 "DailySales" with
  | [ t ] ->
    Alcotest.(check bool) "new sum" true
      (Value.equal (Tuple.get_by_name target t "total_sales") (Value.Int 111))
  | _ -> Alcotest.fail "one group"

(* Property: random batches; incremental maintenance equals recomputation
   after every refresh. *)
let qcheck_incremental_equals_recompute =
  QCheck.Test.make ~name:"incremental maintenance = full recompute" ~count:40
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Xorshift.create seed in
      let wh = Warehouse.create [ view ] in
      let ok = ref true in
      for day = 0 to 4 do
        let src = Warehouse.source wh "DailySales" in
        let batch =
          Sales_gen.gen_batch rng src ~day
            ~inserts:(5 + Xorshift.int rng 20)
            ~updates:(Xorshift.int rng 8)
            ~deletes:(Xorshift.int rng 6)
        in
        Warehouse.queue_changes wh ~view:"DailySales" batch;
        ignore (Warehouse.refresh wh);
        let s = Warehouse.begin_session wh in
        let got = Warehouse.read_view wh s "DailySales" in
        Warehouse.end_session wh s;
        let expected = Warehouse.expected_view wh "DailySales" in
        if not (List.equal Tuple.equal (sorted_view got) (sorted_view expected)) then ok := false
      done;
      !ok)

(* ---------- The indexed Source against the list it replaced ---------- *)

(* The reference model is the newest-first row list the Source used to be:
   an insert conses, a delete or update removes the first equal row (the
   newest), and a batch that names an absent row changes nothing. *)
let model_remove row rows =
  let rec loop acc = function
    | [] -> None
    | r :: rest -> if Tuple.equal r row then Some (List.rev_append acc rest) else loop (r :: acc) rest
  in
  loop [] rows

let model_apply model changes =
  List.fold_left
    (fun m change ->
      match (m, change) with
      | None, _ -> None
      | Some m, Delta.Insert row -> Some (row :: m)
      | Some m, Delta.Delete row -> model_remove row m
      | Some m, Delta.Update (old_row, new_row) -> Option.map (List.cons new_row) (model_remove old_row m))
    (Some model) changes

(* A domain of 24 distinct rows, so equal rows are common. *)
let small_sale rng =
  sale
    (Xorshift.pick rng [| "San Jose"; "Berkeley" |])
    (Xorshift.pick rng [| "tennis"; "golf equip" |])
    (Xorshift.int rng 2)
    (1 + Xorshift.int rng 3)

(* One batch against the newest-first model [m]: inserts, and deletes and
   updates of rows the batch has not consumed yet, biased towards growth
   or shrinkage.  Some deletes are blind (any row of the domain, present or
   not) and some batches end on a row that is never present, so failed
   batches come both early and late. *)
let gen_source_batch rng m ~growing =
  let m = ref m and batch = ref [] in
  let p_insert = if growing then 0.7 else 0.25 in
  for _ = 1 to 1 + Xorshift.int rng 20 do
    let change =
      if !m = [] || Xorshift.chance rng p_insert then Delta.Insert (small_sale rng)
      else if Xorshift.chance rng 0.05 then Delta.Delete (small_sale rng)
      else
        let victim = Xorshift.pick_list rng !m in
        if Xorshift.bool rng then Delta.Delete victim
        else Delta.Update (victim, small_sale rng)
    in
    (match model_apply !m [ change ] with Some m' -> m := m' | None -> ());
    batch := change :: !batch
  done;
  if Xorshift.chance rng 0.1 then batch := Delta.Delete (sale "Fresno" "camping" 3 10) :: !batch;
  List.rev !batch

let source_matches_list_model seed =
  let rng = Xorshift.create seed in
  let src = Source.create Sales_gen.sales_schema in
  let model = ref [] and failures = ref 0 in
  (* Alternating phases of 25 batches grow the row arrays past their
     initial 16 slots and then delete until tombstones outnumber live rows,
     several times over. *)
  for b = 0 to 299 do
    let batch = gen_source_batch rng !model ~growing:(b / 25 mod 2 = 0) in
    let before = Source.rows src in
    let applied =
      match Source.apply src batch with () -> true | exception Invalid_argument _ -> false
    in
    (match (model_apply !model batch, applied) with
    | Some m, true -> model := m
    | None, false ->
      incr failures;
      if not (List.equal Tuple.equal before (Source.rows src)) then
        QCheck.Test.fail_reportf "batch %d: failed batch changed the rows" b
    | Some _, false -> QCheck.Test.fail_reportf "batch %d: rejected a valid batch" b
    | None, true -> QCheck.Test.fail_reportf "batch %d: accepted an invalid batch" b);
    let expected = List.rev !model in
    if not (List.equal Tuple.equal expected (Source.rows src)) then
      QCheck.Test.fail_reportf "batch %d: rows differ from the list model" b;
    if Source.row_count src <> List.length expected then
      QCheck.Test.fail_reportf "batch %d: row_count %d, model %d" b (Source.row_count src)
        (List.length expected);
    (* The recompute over a fresh, insert-only copy of the model's rows. *)
    let fresh = Source.create Sales_gen.sales_schema in
    Source.apply fresh (List.map (fun r -> Delta.Insert r) expected);
    if not (List.equal Tuple.equal (Source.compute_view fresh view) (Source.compute_view src view))
    then QCheck.Test.fail_reportf "batch %d: compute_view differs" b
  done;
  !failures > 0

let qcheck_source_matches_list_model =
  QCheck.Test.make ~name:"indexed source = newest-first list model" ~count:25
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    source_matches_list_model

(* A failing batch whose inserts outgrow the row arrays before it fails:
   the rollback must restore rows, order and count, and a later delete of a
   duplicated row must still take the newest copy. *)
let test_source_failed_growth_restores () =
  let src = Source.create Sales_gen.sales_schema in
  let dup = sale "San Jose" "golf equip" 0 100 and other = sale "Berkeley" "tennis" 1 75 in
  Source.apply src [ Insert dup; Insert other; Insert dup ];
  let before = Source.rows src in
  let batch =
    (Delta.Delete dup :: List.init 200 (fun i -> Delta.Insert (sale "Novato" "tennis" (i mod 3) (i + 1))))
    @ [ Delta.Update (other, dup); Delta.Delete (sale "Fresno" "camping" 3 10) ]
  in
  Alcotest.(check bool) "absent row rejected" true
    (match Source.apply src batch with () -> false | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "rows restored in order" true (List.equal Tuple.equal before (Source.rows src));
  check Alcotest.int "row_count restored" 3 (Source.row_count src);
  Source.apply src [ Delete dup ];
  Alcotest.(check bool) "delete takes the newest copy" true
    (List.equal Tuple.equal [ dup; other ] (Source.rows src));
  Source.apply src [ Update (dup, other); Insert dup ];
  Alcotest.(check bool) "update's new row goes last" true
    (List.equal Tuple.equal [ other; other; dup ] (Source.rows src))

(* The refresh's allocation, pinned.  One spill refresh shaped like the
   drain_spill benchmark's: DailySales over 40 days x 235 sales in a
   32-frame pool (the table does not fit), then a batch of 25 sales on a
   new day, 100 corrections of random live sales, every sale of 25 random
   groups returned, and sales on random live groups until the base is
   back to its size.  Each changed group should cost only its write.

   The budget is a ratio, so no one compiler's word counts are baked in:
   the refresh's [Stdlib.Gc.minor_words] against one read of the
   refreshed view (3,495 rows) in the same process, through the reader
   path, which the commit path does not share.  With each changed group
   classified and written on its page bytes (the probe returns rids only,
   and no stored record becomes a tuple) the refresh allocates 50,900
   words against the read's 55,400 on OCaml 5.1 x86-64, a ratio of 0.92;
   with the decode-copy-fold path before it, 78,500 (1.42); before the
   allocation-lean commit path, 166,200 against 56,400, or 2.95 (the
   drain_spill benchmark's own batches: 142k words per refresh).  Blocks
   too large for the minor heap (the netting pass's bucket array) are not
   in any figure. *)
let spill_refresh_words () =
  let rng = Xorshift.create 11 in
  let initial = Sales_gen.initial_load rng ~days:40 ~sales_per_day:235 in
  let rows =
    ref (Array.of_list (List.map (function Delta.Insert r -> r | _ -> assert false) initial))
  in
  let wh = Warehouse.create ~pool_capacity:32 [ view ] in
  Warehouse.queue_changes wh ~view:"DailySales" initial;
  ignore (Warehouse.refresh wh);
  let target = Array.length !rows in
  let group r = List.init 4 (Tuple.get r) in
  let amount () = Value.Int (10 + Xorshift.int rng 490) in
  let spill day =
    let live = ref (Array.to_list !rows) and changes = ref [] in
    let emit c = changes := c :: !changes in
    for _ = 1 to 25 do
      let r = Sales_gen.gen_sale rng ~day in
      live := r :: !live;
      emit (Delta.Insert r)
    done;
    let arr = Array.of_list !live in
    for _ = 1 to 100 do
      let i = Xorshift.int rng (Array.length arr) in
      let r' = Tuple.set arr.(i) 4 (amount ()) in
      emit (Delta.Update (arr.(i), r'));
      arr.(i) <- r'
    done;
    let live = ref (Array.to_list arr) in
    for _ = 1 to 25 do
      let g = group (List.nth !live (Xorshift.int rng (List.length !live))) in
      let gone, kept = List.partition (fun r -> group r = g) !live in
      List.iter (fun r -> emit (Delta.Delete r)) gone;
      live := kept
    done;
    let arr = Array.of_list !live in
    let refill = ref [] in
    for _ = 1 to target - Array.length arr do
      let r = Tuple.set arr.(Xorshift.int rng (Array.length arr)) 4 (amount ()) in
      refill := r :: !refill;
      emit (Delta.Insert r)
    done;
    rows := Array.append arr (Array.of_list (List.rev !refill));
    List.rev !changes
  in
  (* Two refreshes to settle, then the measured one. *)
  let words = ref 0. in
  for day = 40 to 42 do
    Warehouse.queue_changes wh ~view:"DailySales" (spill day);
    let before = Stdlib.Gc.minor_words () in
    ignore (Warehouse.refresh wh);
    words := Stdlib.Gc.minor_words () -. before
  done;
  let s = Warehouse.begin_session wh in
  let before = Stdlib.Gc.minor_words () in
  let got = Warehouse.read_view wh s "DailySales" in
  let read_words = Stdlib.Gc.minor_words () -. before in
  Warehouse.end_session wh s;
  Alcotest.(check bool) "incremental = recompute" true
    (List.equal Tuple.equal (sorted_view got)
       (sorted_view (Warehouse.expected_view wh "DailySales")));
  (!words, read_words)

let test_refresh_allocation_budget () =
  let words, read_words = spill_refresh_words () in
  let budget = 1.3 *. 0.92 *. read_words in
  if words > budget then
    Alcotest.failf "a spill refresh allocated %.0f words, %.2fx a view read's %.0f (budget %.0f)"
      words (words /. read_words) read_words budget

let suite =
  [
    Alcotest.test_case "view target schema" `Quick test_view_target_schema;
    Alcotest.test_case "DailySales sans count = 42 bytes" `Quick
      test_view_without_count_matches_paper;
    Alcotest.test_case "bad view definitions rejected" `Quick test_view_rejects_bad_defs;
    Alcotest.test_case "delta netting" `Quick test_delta_netting;
    Alcotest.test_case "update = delete + insert" `Quick test_delta_update_is_delete_plus_insert;
    Alcotest.test_case "cancelling batch drops group" `Quick
      test_delta_cancelling_batch_drops_group;
    Alcotest.test_case "source apply/recompute" `Quick test_source_apply_and_recompute;
    Alcotest.test_case "source delete absent rejected" `Quick test_source_delete_absent_rejected;
    Alcotest.test_case "queue_changes is all or nothing" `Quick test_queue_changes_all_or_nothing;
    Alcotest.test_case "float aggregates" `Quick test_float_aggregates;
    Alcotest.test_case "incremental matches recompute" `Quick test_incremental_matches_recompute;
    Alcotest.test_case "group removed at zero support" `Quick
      (test_group_disappears_at_zero_support ~workers:1);
    Alcotest.test_case "group removed at zero support, 2 workers" `Quick
      (test_group_disappears_at_zero_support ~workers:2);
    Alcotest.test_case "reader isolated during refresh" `Quick
      test_reader_isolated_during_refresh;
    QCheck_alcotest.to_alcotest qcheck_incremental_equals_recompute;
    Alcotest.test_case "source: failed growing batch restores" `Quick
      test_source_failed_growth_restores;
    QCheck_alcotest.to_alcotest qcheck_source_matches_list_model;
    Alcotest.test_case "spill refresh allocation budget" `Quick test_refresh_allocation_budget;
  ]
