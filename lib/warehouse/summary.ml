module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Twovnl = Vnl_core.Twovnl
module Batch = Vnl_core.Batch

type outcome = {
  groups_inserted : int;
  groups_updated : int;
  groups_deleted : int;
}

(* The one classifier.  [current i d] is the group's current tuple (base
   schema, aggregates at their positional offsets) for the [i]-th net delta
   [d], or [None] when the group is absent or logically deleted.  An absent
   group is inserted, a present one has its aggregates adjusted, and a
   group whose support count drops to zero is deleted.  Net deltas carry
   one entry per key, so classifying every delta against the pre-batch
   state is equivalent to classifying as the batch applies. *)
let classify view deltas current =
  let target = View_def.target_schema view in
  let agg_names = List.map fst (View_def.aggregates view) in
  let key_arity = List.length (View_def.group_by view) in
  let inserted = ref 0 and updated = ref 0 and deleted = ref 0 in
  let ops =
    Vnl_obs.Obs.with_span "summary.classify" @@ fun () ->
    List.filter_map Fun.id
    @@ List.mapi
         (fun i ({ Delta.key; agg_delta; count_delta } as d) ->
           match current i d with
           | None ->
             if count_delta < 0 then
               invalid_arg "Summary: negative delta for absent group";
             if count_delta > 0 then begin
               incr inserted;
               Some (Batch.Insert (Tuple.make target (key @ agg_delta)))
             end
             else None
           | Some current ->
             let old_aggs =
               List.mapi (fun i _ -> Tuple.get current (key_arity + i)) agg_names
             in
             let new_aggs = List.map2 Value.add old_aggs agg_delta in
             let support =
               if View_def.has_count view then
                 match List.rev new_aggs with
                 | Value.Int c :: _ -> Some c
                 | _ -> invalid_arg "Summary: corrupt row_count"
               else None
             in
             (match support with
             | Some c when c <= 0 ->
               incr deleted;
               Some (Batch.Delete key)
             | Some _ | None ->
               incr updated;
               let assignments = List.mapi (fun i v -> (key_arity + i, v)) new_aggs in
               Some (Batch.Update (key, assignments))))
         deltas
  in
  (ops, { groups_inserted = !inserted; groups_updated = !updated; groups_deleted = !deleted })

let net_deltas view changes =
  Vnl_obs.Obs.with_span "summary.net_deltas" (fun () -> Delta.net_group_deltas view changes)

(* Inside a hand-driven transaction: classify through the transaction's own
   reads, then hand the operations to {!Twovnl.Txn.apply_batch}. *)
let apply_batch txn view changes =
  let table = View_def.name view in
  let deltas = net_deltas view changes in
  let ops, outcome =
    classify view deltas (fun _ d -> Twovnl.Txn.read_current txn ~table ~key:d.Delta.key)
  in
  ignore (Twovnl.Txn.apply_batch txn ~table ops);
  outcome

(* Classification without a transaction, for {!Warehouse.refresh}: raw
   index probes ({!Vnl_query.Table.find_by_key}) whose results are kept and
   replayed into the round's {!Batch.stage}, so each distinct key is
   resolved once per refresh.  Must run against the pre-round table state
   (before any stripe applies). *)
let plan_batch vnl view changes =
  let module Schema_ext = Vnl_core.Schema_ext in
  let h = Twovnl.handle_exn vnl (View_def.name view) in
  let ext = Twovnl.ext h and table = Twovnl.table h in
  let deltas = net_deltas view changes in
  let found =
    Vnl_obs.Obs.with_span "summary.resolve" (fun () ->
        Array.of_list (List.map (fun d -> Vnl_query.Table.find_by_key table d.Delta.key) deltas))
  in
  let ops, outcome =
    classify view deltas (fun i _ ->
        match found.(i) with
        | Some (_, tuple) when Vnl_core.Maintenance.is_logically_live ext tuple ->
          (* Base schema, not the view template's target: an evolved view's
             base is wider (added columns at the end), and the positional
             aggregate reads address the shared prefix either way. *)
          Some (Tuple.make (Schema_ext.base ext) (Schema_ext.current_values ext tuple))
        | Some _ | None -> None)
  in
  let resolve =
    Batch.key_table_of_pairs (List.mapi (fun i d -> (d.Delta.key, found.(i))) deltas)
  in
  (ops, resolve, outcome)

(* Union-view merge for the sharded warehouse: each shard materializes its
   own instance of the template, and the logical view is the key-merge of
   the per-shard visible relations.  SUM and COUNT distribute over a
   disjoint partition of the base rows, so addition is exact; when a group
   key does appear on several shards (a routing function keyed on
   something coarser than the group-by), adding the per-shard aggregates
   is still the right union semantics. *)
let merge_union view relations =
  let target = View_def.target_schema view in
  let key_arity = List.length (View_def.group_by view) in
  let agg_arity = List.length (View_def.aggregates view) in
  let acc : (Value.t list, Value.t array) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun relation ->
      List.iter
        (fun tuple ->
          let key = List.init key_arity (Tuple.get tuple) in
          let aggs = Array.init agg_arity (fun i -> Tuple.get tuple (key_arity + i)) in
          match Hashtbl.find_opt acc key with
          | None ->
            Hashtbl.add acc key aggs;
            order := key :: !order
          | Some prev -> Array.iteri (fun i v -> prev.(i) <- Value.add prev.(i) v) aggs)
        relation)
    relations;
  List.rev_map
    (fun key -> Tuple.make target (key @ Array.to_list (Hashtbl.find acc key)))
    !order

let pp_outcome ppf o =
  Format.fprintf ppf "inserted=%d updated=%d deleted=%d" o.groups_inserted o.groups_updated
    o.groups_deleted
