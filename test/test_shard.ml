(* Sharded warehouse + pipelined abort/requeue coverage.

   Two invariants anchor this suite:

   - {e zero lost batches}: killing a pipelined round at any (phase,
     stripe) point leaves each view's queue holding exactly the source
     changes the aborted suffix failed to propagate, in arrival order,
     and a follow-up one-stripe refresh converges byte-identically to the
     source recomputation.  The kill is injected through
     [Pipeline.plan]'s [on_phase] hook and driven by the deterministic
     scheduler, so every failure point is replayable.

   - {e no torn cross-shard reads}: a VN-vector session's view of the
     union is the merge of each shard's committed state at the
     component's VN, for as long as every component stays valid — checked
     against a per-shard full-history oracle (committed state per VN,
     recomputed from each shard's source, never from the read path under
     test).

   Environment knobs (the CI 4-shard x 2-domain stress configuration):
     VNL_SHARD_SHARDS   shards for the oracle scenario  (default 2)
     VNL_SHARD_DOMAINS  refresh_all fan-out domains     (default 1) *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module View_def = Vnl_warehouse.View_def
module Delta = Vnl_warehouse.Delta
module Source = Vnl_warehouse.Source
module Summary = Vnl_warehouse.Summary
module Warehouse = Vnl_warehouse.Warehouse
module Shard = Vnl_warehouse.Shard
module Twovnl = Vnl_core.Twovnl
module Pipeline = Vnl_core.Pipeline
module Sales_gen = Vnl_workload.Sales_gen
module Xorshift = Vnl_util.Xorshift
module Sched = Vnl_util.Sched

let check = Alcotest.check

let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ -> Alcotest.failf "%s: expected a positive integer, got %S" name v)

let shard_count = env_int "VNL_SHARD_SHARDS" 2

let refresh_domains = env_int "VNL_SHARD_DOMAINS" 1

let view_name = "DailySales"

let view = Sales_gen.daily_sales_view ()

let sale ?(state = "CA") city pl day amount =
  Tuple.make Sales_gen.sales_schema
    [ Value.Str city; Value.Str state; Value.Str pl; Sales_gen.date_of_day day;
      Value.Int amount ]

let sorted = List.sort Tuple.compare

let views_equal a b = List.equal Tuple.equal (sorted a) (sorted b)

(* ------------------------------------------------------------------ *)
(* Abort/requeue sweep *)

exception Killed of Pipeline.phase * int

(* Deterministic execution of a planned round: the stripe workers as
   fibers under the seeded scheduler, then the ordinary join. *)
let sched_run ~seed plan =
  ignore (Sched.run ~seed (Pipeline.tasks plan));
  Pipeline.finish plan

(* A mixed batch over a preloaded warehouse: fresh groups, accumulating
   sales into existing groups, amount corrections, cross-group updates
   (product line restated — old and new rows in different groups), and
   returns.  Drawn deterministically so every sweep point sees the same
   batch. *)
let mixed_batch rng src ~day =
  let base = Sales_gen.gen_batch rng src ~day ~inserts:40 ~updates:6 ~deletes:4 in
  (* A guaranteed cross-group update: the city is outside the generator's
     vocabulary so the pair can never collide with [base]'s victims, and
     the product-line change moves the row between groups — exercising the
     Update → Insert/Delete decomposition at the published boundary. *)
  let fresh = sale "Crossville" "tennis" day 7 in
  let moved = Tuple.set fresh 2 (Value.Str "camping") in
  base @ [ Delta.Insert fresh; Delta.Update (fresh, moved) ]

let mk_loaded_warehouse ~n ~seed =
  let wh = Warehouse.create ~n [ view ] in
  let rng = Xorshift.create seed in
  Warehouse.queue_changes wh ~view:view_name
    (Sales_gen.initial_load rng ~days:3 ~sales_per_day:60);
  ignore (Warehouse.refresh wh);
  (wh, rng)

(* [requeued] must be exactly a suffix selection of [original] in arrival
   order: every requeued change matches a later original change than the
   previous one did, where an original [Update] may stand for itself or
   for either decomposed half (the published-boundary straddle). *)
let check_requeue_order ~original ~requeued =
  let covers orig req =
    match (orig, req) with
    | Delta.Update (o, n), Delta.Update (o', n') -> Tuple.equal o o' && Tuple.equal n n'
    | Delta.Update (_, n), Delta.Insert r | Delta.Insert n, Delta.Insert r ->
      Tuple.equal n r
    | Delta.Update (o, _), Delta.Delete r | Delta.Delete o, Delta.Delete r ->
      Tuple.equal o r
    | _ -> false
  in
  let rec walk orig reqs =
    match reqs with
    | [] -> true
    | req :: rest -> (
      match orig with
      | [] -> false
      | o :: orest -> if covers o req then walk orest rest else walk orest reqs)
  in
  if not (walk original requeued) then
    Alcotest.failf "requeued changes are not an ordered selection of the batch (%d of %d)"
      (List.length requeued) (List.length original)

let run_kill_point ~workers ~seed (phase, stripe) =
  let wh, rng = mk_loaded_warehouse ~n:(workers + 1) ~seed in
  let src = Warehouse.source wh view_name in
  let batch = mixed_batch rng src ~day:3 in
  Warehouse.queue_changes wh ~view:view_name batch;
  let original = Warehouse.peek_pending wh ~view:view_name in
  let on_phase p ~stripe:i = if p = phase && i = stripe then raise (Killed (p, i)) in
  let killed =
    match
      Warehouse.refresh ~workers ~on_phase ~run:(sched_run ~seed) wh
    with
    | _ -> false
    | exception Killed _ -> true
  in
  if killed then begin
    (* (a) the queue holds exactly the unpublished suffix, in order. *)
    let requeued = Warehouse.peek_pending wh ~view:view_name in
    check_requeue_order ~original ~requeued;
    (* Nothing beyond the drained batch may have appeared. *)
    Alcotest.(check bool) "requeued bounded by batch" true
      (List.length requeued <= List.length original)
  end;
  (* (b) a follow-up one-stripe refresh lands byte-identically on the source
     recomputation — zero lost (and zero double-applied) changes, whether
     or not the kill point was reached. *)
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let got = Warehouse.read_view wh s view_name in
  Warehouse.end_session wh s;
  let expected = Warehouse.expected_view wh view_name in
  if not (views_equal got expected) then
    Alcotest.failf "view diverged after kill at stripe %d" stripe;
  killed

let test_abort_requeue_sweep () =
  let stripe0_points = ref 0 and stripe0_kills = ref 0 in
  let later_kills = ref 0 in
  List.iter
    (fun workers ->
      List.iter
        (fun phase ->
          for stripe = 0 to workers - 1 do
            List.iter
              (fun seed ->
                let killed = run_kill_point ~workers ~seed (phase, stripe) in
                if stripe = 0 then begin
                  incr stripe0_points;
                  if killed then incr stripe0_kills
                end
                else if killed then incr later_kills)
              [ 3; 17 ]
          done)
        [ `Fold; `Apply; `Token ])
    [ 2; 3 ];
  (* Stripe 0 exists whenever the round has work, so those kill points
     must all fire; higher stripes depend on how the batch partitions
     (convergence is still asserted either way), but the sweep must have
     exercised at least one mid-round abort with a published prefix. *)
  check Alcotest.int "every stripe-0 kill fired" !stripe0_points !stripe0_kills;
  Alcotest.(check bool) "some multi-stripe kill fired" true (!later_kills > 0)

let test_abort_requeue_real_domains () =
  (* One kill point through the real [Pipeline.run] path: the requeue
     logic must not depend on the deterministic scheduler. *)
  let wh, rng = mk_loaded_warehouse ~n:3 ~seed:91 in
  let src = Warehouse.source wh view_name in
  let batch = mixed_batch rng src ~day:3 in
  Warehouse.queue_changes wh ~view:view_name batch;
  let on_phase p ~stripe:i = if p = `Apply && i = 0 then raise (Killed (p, i)) in
  (match Warehouse.refresh ~workers:2 ~on_phase wh with
  | _ -> Alcotest.fail "kill point not reached"
  | exception Killed _ -> ());
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let got = Warehouse.read_view wh s view_name in
  Warehouse.end_session wh s;
  Alcotest.(check bool) "converged" true
    (views_equal got (Warehouse.expected_view wh view_name))

let test_plan_failure_requeues_everything () =
  let wh, rng = mk_loaded_warehouse ~n:3 ~seed:37 in
  let src = Warehouse.source wh view_name in
  let batch = mixed_batch rng src ~day:3 in
  Warehouse.queue_changes wh ~view:view_name batch;
  let original = Warehouse.peek_pending wh ~view:view_name in
  (* workers < 1 makes Pipeline.plan raise after the queues were drained:
     nothing published, so everything must come back. *)
  (match Warehouse.refresh ~workers:0 wh with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "entire batch requeued" true
    (List.equal
       (fun a b ->
         match (a, b) with
         | Delta.Insert x, Delta.Insert y | Delta.Delete x, Delta.Delete y ->
           Tuple.equal x y
         | Delta.Update (o, n), Delta.Update (o', n') ->
           Tuple.equal o o' && Tuple.equal n n'
         | _ -> false)
       original
       (Warehouse.peek_pending wh ~view:view_name));
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let got = Warehouse.read_view wh s view_name in
  Warehouse.end_session wh s;
  Alcotest.(check bool) "converged" true
    (views_equal got (Warehouse.expected_view wh view_name))

(* ------------------------------------------------------------------ *)
(* Delta float-residue regression *)

let float_schema =
  Schema.make [ Schema.attr "grp" (Dtype.Str 4); Schema.attr "x" Dtype.Float ]

let float_view =
  View_def.make ~name:"F" ~source:float_schema ~group_by:[ "grp" ]
    ~aggregates:[ ("total", View_def.Sum "x") ]
    ()

let frow g x = Tuple.make float_schema [ Value.Str g; Value.Float x ]

let test_delta_float_residue_dropped () =
  (* (0.1 +. 0.2) -. 0.3 <> 0. in floats; the group's rows cancel exactly
     (count 0), so the residue must be cleaned and the group dropped. *)
  let batch =
    [ Delta.Insert (frow "a" 0.1); Delta.Insert (frow "a" 0.2);
      Delta.Insert (frow "a" 0.3); Delta.Delete (frow "a" 0.1);
      Delta.Delete (frow "a" 0.2); Delta.Delete (frow "a" 0.3) ]
  in
  check Alcotest.int "phantom group dropped" 0
    (List.length (Delta.net_group_deltas float_view batch))

let test_float_residue_refresh_is_noop () =
  (* The same cancelling batch through a full refresh, against both an
     absent group ("a") and a present one ("b"): neither may pick up
     epsilon, and the refreshed view must equal the recomputation
     byte-for-byte. *)
  let wh = Warehouse.create [ float_view ] in
  Warehouse.queue_changes wh ~view:"F" [ Delta.Insert (frow "b" 0.3) ];
  ignore (Warehouse.refresh wh);
  let cancelling g =
    [ Delta.Insert (frow g 0.1); Delta.Insert (frow g 0.2); Delta.Insert (frow g 0.3);
      Delta.Delete (frow g 0.1); Delta.Delete (frow g 0.2); Delta.Delete (frow g 0.3) ]
  in
  Warehouse.queue_changes wh ~view:"F" (cancelling "a" @ cancelling "b");
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let got = Warehouse.read_view wh s "F" in
  Warehouse.end_session wh s;
  Alcotest.(check bool) "byte-identical to recompute" true
    (views_equal got (Warehouse.expected_view wh "F"))

(* ------------------------------------------------------------------ *)
(* Shard map and routing *)

let test_shard_map_routing () =
  let map =
    Shard.Shard_map.create ~shards:2 ~route:(fun row ->
        match Tuple.get row 1 with Value.Str "CA" -> 0 | _ -> 1)
  in
  let ca = sale "San Jose" "tennis" 0 10 in
  let orr = sale ~state:"OR" "Portland" "tennis" 0 20 in
  let slices =
    Shard.Shard_map.partition_changes map
      [ Delta.Insert ca; Delta.Insert orr; Delta.Update (ca, orr);
        Delta.Delete orr ]
  in
  check Alcotest.int "two slices" 2 (Array.length slices);
  (* Shard 0: the CA insert, then the straddling update's Delete half. *)
  (match slices.(0) with
  | [ Delta.Insert a; Delta.Delete b ] ->
    Alcotest.(check bool) "ca insert" true (Tuple.equal a ca);
    Alcotest.(check bool) "ca delete half" true (Tuple.equal b ca)
  | _ -> Alcotest.fail "shard 0 slice shape");
  (* Shard 1: the OR insert, the update's Insert half, then the delete —
     arrival order preserved. *)
  (match slices.(1) with
  | [ Delta.Insert a; Delta.Insert b; Delta.Delete c ] ->
    Alcotest.(check bool) "or insert" true (Tuple.equal a orr);
    Alcotest.(check bool) "or insert half" true (Tuple.equal b orr);
    Alcotest.(check bool) "or delete" true (Tuple.equal c orr)
  | _ -> Alcotest.fail "shard 1 slice shape")

let test_shard_map_validation () =
  let expect_invalid f =
    Alcotest.(check bool) "raises" true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  expect_invalid (fun () -> Shard.Shard_map.create ~shards:0 ~route:(fun _ -> 0));
  expect_invalid (fun () ->
      Shard.Shard_map.by_attrs ~shards:2 ~source:Sales_gen.sales_schema ~attrs:[]);
  expect_invalid (fun () ->
      Shard.Shard_map.by_attrs ~shards:2 ~source:Sales_gen.sales_schema ~attrs:[ "nope" ]);
  let bad = Shard.Shard_map.create ~shards:2 ~route:(fun _ -> 7) in
  expect_invalid (fun () -> Shard.Shard_map.route bad (sale "x" "y" 0 1))

let test_template_instances () =
  let inst = View_def.instantiate view ~shard:3 in
  check Alcotest.string "stamped name" "DailySales__s3" (View_def.name inst);
  Alcotest.(check bool) "same target schema" true
    (Schema.equal (View_def.target_schema inst) (View_def.target_schema view));
  Alcotest.(check bool) "negative shard rejected" true
    (try ignore (View_def.instantiate view ~shard:(-1)); false
     with Invalid_argument _ -> true)

let test_merge_union_sums_shared_groups () =
  let target = View_def.target_schema float_view in
  let g v c = Tuple.make target [ Value.Str "g"; Value.Float v; Value.Int c ] in
  let h = Tuple.make target [ Value.Str "h"; Value.Float 2.0; Value.Int 1 ] in
  match Summary.merge_union float_view [ [ g 1.5 2; h ]; [ g 0.5 1 ] ] with
  | [ merged; passed ] ->
    Alcotest.(check bool) "summed" true (Tuple.equal merged (g 2.0 3));
    Alcotest.(check bool) "pass-through" true (Tuple.equal passed h)
  | l -> Alcotest.failf "expected 2 merged groups, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Cross-shard snapshots vs the full-history oracle *)

(* Mirror source holding the union of all shards' base rows: batches are
   generated against it (so updates/deletes pick real victims) and it
   doubles as the union-view oracle. *)
let gen_round rng mirror ~day =
  Sales_gen.gen_batch rng mirror ~day ~inserts:30 ~updates:5 ~deletes:3

let test_sharded_drain_matches_union_oracle () =
  let sw =
    Shard.Sharded.create ~n:2
      ~shard_map:(Sales_gen.sales_shard_map ~shards:shard_count)
      [ view ]
  in
  let rng = Xorshift.create 5 in
  let mirror = Source.create Sales_gen.sales_schema in
  let feed changes =
    Source.apply mirror changes;
    Shard.Sharded.queue_changes sw ~view:view_name changes
  in
  feed (Sales_gen.initial_load rng ~days:3 ~sales_per_day:50);
  ignore (Shard.Sharded.refresh_all ~domains:refresh_domains sw);
  for day = 3 to 8 do
    feed (gen_round rng mirror ~day);
    ignore (Shard.Sharded.refresh_all ~domains:refresh_domains sw)
  done;
  let session = Shard.Sharded.begin_session sw in
  let union = Shard.Sharded.read_union sw session ~view:view_name in
  Shard.Sharded.end_session sw session;
  (* The union of per-shard views must equal the view over the union of
     the bases — computed by an independent oracle source that never saw
     the shard layer. *)
  Alcotest.(check bool) "union = oracle recompute" true
    (views_equal union (Source.compute_view mirror view));
  Alcotest.(check bool) "union = expected_union" true
    (views_equal union (Shard.Sharded.expected_union sw ~view:view_name))

(* Full history: per shard, the committed instance state at every VN it
   ever published (recomputed from the shard's own source at commit time,
   independent of the read path).  Any live session vector must then read
   component s at exactly history[s][vn_s]. *)
let test_cross_shard_snapshot_vector () =
  let shards = max 2 shard_count in
  let sw =
    Shard.Sharded.create ~n:4
      ~shard_map:(Sales_gen.sales_shard_map ~shards)
      [ view ]
  in
  let rng = Xorshift.create 13 in
  let mirror = Source.create Sales_gen.sales_schema in
  let history = Array.make shards [] in
  let record_shard s =
    let wh = Shard.Sharded.shard sw s in
    let vn = Twovnl.current_vn (Warehouse.vnl wh) in
    let state =
      Warehouse.expected_view wh (View_def.instance_name view_name ~shard:s)
    in
    history.(s) <- (vn, state) :: history.(s)
  in
  let feed changes =
    Source.apply mirror changes;
    Shard.Sharded.queue_changes sw ~view:view_name changes
  in
  feed (Sales_gen.initial_load rng ~days:3 ~sales_per_day:40);
  ignore (Shard.Sharded.refresh_all sw);
  Array.iteri (fun s _ -> record_shard s) history;
  let expected_at s vn =
    match List.assoc_opt vn history.(s) with
    | Some state -> state
    | None -> Alcotest.failf "no recorded state for shard %d at vn %d" s vn
  in
  let validate session =
    let vns = Array.of_list (Shard.Sharded.vn_vector session) in
    for s = 0 to shards - 1 do
      let got = Shard.Sharded.read_shard_view sw session ~shard:s ~view:view_name in
      if not (views_equal got (expected_at s vns.(s))) then
        Alcotest.failf "shard %d torn at vn %d" s vns.(s)
    done;
    let union = Shard.Sharded.read_union sw session ~view:view_name in
    let merged =
      Summary.merge_union view (List.init shards (fun s -> expected_at s vns.(s)))
    in
    Alcotest.(check bool) "union matches vector merge" true (views_equal union merged)
  in
  (* Round-robin refreshes with sessions opened before, between, and
     after: each open session must keep reading its own vector even as
     shards publish new VNs underneath it. *)
  let open_sessions = ref [] in
  for round = 0 to (3 * shards) - 1 do
    feed (gen_round rng mirror ~day:(3 + round));
    let before = Shard.Sharded.begin_session sw in
    ignore (Shard.Sharded.refresh_shard sw ~shard:(round mod shards));
    record_shard (round mod shards);
    open_sessions := before :: !open_sessions;
    (* Validate every session still inside its validity window; n = 4
       tolerates up to 2 overlapped refreshes per shard, and each shard
       refreshes every [shards] rounds, so a 2-round-old vector is safely
       live. *)
    let live, stale =
      List.partition (fun s -> Shard.Sharded.session_valid sw s) !open_sessions
    in
    List.iter validate live;
    List.iter (fun s -> Shard.Sharded.end_session sw s) stale;
    let keep, drop =
      match live with a :: b :: rest -> ([ a; b ], rest) | l -> (l, [])
    in
    List.iter (fun s -> Shard.Sharded.end_session sw s) drop;
    open_sessions := keep
  done;
  List.iter (fun s -> Shard.Sharded.end_session sw s) !open_sessions;
  (* Drain everything and confirm convergence against the independent
     mirror oracle. *)
  ignore (Shard.Sharded.refresh_all ~domains:refresh_domains sw);
  let session = Shard.Sharded.begin_session sw in
  let union = Shard.Sharded.read_union sw session ~view:view_name in
  Shard.Sharded.end_session sw session;
  Alcotest.(check bool) "final union = oracle" true
    (views_equal union (Source.compute_view mirror view))

let test_expired_component_rejected () =
  let sw =
    Shard.Sharded.create ~n:2
      ~shard_map:(Sales_gen.sales_shard_map ~shards:2)
      [ view ]
  in
  let rng = Xorshift.create 29 in
  Shard.Sharded.queue_changes sw ~view:view_name
    (Sales_gen.initial_load rng ~days:2 ~sales_per_day:30);
  ignore (Shard.Sharded.refresh_all sw);
  let session = Shard.Sharded.begin_session sw in
  (* Two refreshes (with real work each) of one shard under n = 2 expire
     that component; the vector as a whole must then refuse, and reading
     the stale component must raise.  Resolve the victim shard through the
     map rather than assuming where a state hashes. *)
  let row day = sale ~state:"NV" "Reno" "running" day 5 in
  let target = Shard.Shard_map.route (Shard.Sharded.shard_map sw) (row 0) in
  for day = 0 to 1 do
    Shard.Sharded.queue_changes sw ~view:view_name [ Delta.Insert (row day) ];
    ignore (Shard.Sharded.refresh_shard sw ~shard:target)
  done;
  Alcotest.(check bool) "vector invalid" false (Shard.Sharded.session_valid sw session);
  Alcotest.(check bool) "component read raises" true
    (try
       ignore (Shard.Sharded.read_shard_view sw session ~shard:target ~view:view_name);
       false
     with Twovnl.Expired _ -> true);
  Shard.Sharded.end_session sw session

let test_pipelined_shard_refresh () =
  (* Per-shard pipelined rounds through the sharded facade, including one
     killed round: the shard requeues and converges like a standalone
     warehouse. *)
  let sw =
    Shard.Sharded.create ~n:3
      ~shard_map:(Sales_gen.sales_shard_map ~shards:2)
      [ view ]
  in
  let rng = Xorshift.create 41 in
  let mirror = Source.create Sales_gen.sales_schema in
  let feed changes =
    Source.apply mirror changes;
    Shard.Sharded.queue_changes sw ~view:view_name changes
  in
  feed (Sales_gen.initial_load rng ~days:3 ~sales_per_day:50);
  ignore (Shard.Sharded.refresh_all ~workers:2 sw);
  feed (gen_round rng mirror ~day:3);
  let on_phase p ~stripe:i = if p = `Apply && i = 1 then raise (Killed (p, i)) in
  (match Shard.Sharded.refresh_shard ~workers:2 ~on_phase sw ~shard:0 with
  | _ -> ()  (* shard 0's slice may plan fewer than 2 stripes *)
  | exception Killed _ -> ());
  ignore (Shard.Sharded.refresh_all sw);
  let session = Shard.Sharded.begin_session sw in
  let union = Shard.Sharded.read_union sw session ~view:view_name in
  Shard.Sharded.end_session sw session;
  Alcotest.(check bool) "union = oracle after killed round" true
    (views_equal union (Source.compute_view mirror view))

let suite =
  [
    Alcotest.test_case "abort/requeue sweep over every (phase, stripe)" `Quick
      test_abort_requeue_sweep;
    Alcotest.test_case "abort/requeue through real domains" `Quick
      test_abort_requeue_real_domains;
    Alcotest.test_case "plan failure requeues the entire batch" `Quick
      test_plan_failure_requeues_everything;
    Alcotest.test_case "float cancellation residue is dropped" `Quick
      test_delta_float_residue_dropped;
    Alcotest.test_case "cancelling float batch refreshes to a no-op" `Quick
      test_float_residue_refresh_is_noop;
    Alcotest.test_case "shard map routes and splits straddling updates" `Quick
      test_shard_map_routing;
    Alcotest.test_case "shard map validation" `Quick test_shard_map_validation;
    Alcotest.test_case "template instances stamp names only" `Quick
      test_template_instances;
    Alcotest.test_case "merge_union sums shared groups" `Quick
      test_merge_union_sums_shared_groups;
    Alcotest.test_case "sharded drain matches the union oracle" `Quick
      test_sharded_drain_matches_union_oracle;
    Alcotest.test_case "cross-shard VN-vector snapshots vs full history" `Quick
      test_cross_shard_snapshot_vector;
    Alcotest.test_case "expired component invalidates the vector" `Quick
      test_expired_component_rejected;
    Alcotest.test_case "pipelined per-shard refresh with a killed round" `Quick
      test_pipelined_shard_refresh;
  ]
