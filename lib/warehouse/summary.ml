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
   state is equivalent to classifying as the batch applies.  Each
   operation comes tagged with its delta's index; deltas that cancel out
   on an absent group produce none. *)
let classify view deltas current =
  let target = View_def.target_schema view in
  let key_arity = List.length (View_def.group_by view) in
  let has_count = View_def.has_count view in
  let inserted = ref 0 and updated = ref 0 and deleted = ref 0 in
  (* The support count, when kept, is the last aggregate. *)
  let rec support = function
    | [ (_, Value.Int c) ] -> c
    | _ :: rest -> support rest
    | [] -> invalid_arg "Summary: corrupt row_count"
  in
  let classify_one i ({ Delta.key; agg_delta; count_delta } as d) =
    match current i d with
    | None ->
      if count_delta < 0 then invalid_arg "Summary: negative delta for absent group";
      if count_delta > 0 then begin
        incr inserted;
        Some (i, Batch.Insert (Tuple.make target (key @ agg_delta)))
      end
      else None
    | Some current ->
      let assignments =
        List.mapi
          (fun a v ->
            let j = key_arity + a in
            (j, Value.add (Tuple.get current j) v))
          agg_delta
      in
      if has_count && support assignments <= 0 then begin
        incr deleted;
        Some (i, Batch.Delete key)
      end
      else begin
        incr updated;
        Some (i, Batch.Update (key, assignments))
      end
  in
  let ops =
    Vnl_obs.Obs.with_span "summary.classify" @@ fun () ->
    let rec go i acc = function
      | [] -> List.rev acc
      | d :: rest -> (
        match classify_one i d with
        | Some op -> go (i + 1) (op :: acc) rest
        | None -> go (i + 1) acc rest)
    in
    go 0 [] deltas
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
  ignore (Twovnl.Txn.apply_batch txn ~table (List.map snd ops));
  outcome

(* Classification without a transaction, for {!Warehouse.refresh}: raw
   index probes ({!Vnl_query.Table.find_by_key}) whose results are handed,
   aligned with the operations, to the round's {!Batch.stage}, so each
   distinct key is resolved once per refresh.  Must run against the
   pre-round table state (before any stripe applies). *)
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
             aggregate reads address the shared prefix either way.  The
             record was decoded from storage, so it needs no re-check. *)
          Some (Schema_ext.current_tuple ext tuple)
        | Some _ | None -> None)
  in
  (List.map snd ops, Array.of_list (List.map (fun (i, _) -> found.(i)) ops), outcome)

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
