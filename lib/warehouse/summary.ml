module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Twovnl = Vnl_core.Twovnl
module Batch = Vnl_core.Batch
module Obs = Vnl_obs.Obs

type outcome = {
  groups_inserted : int;
  groups_updated : int;
  groups_deleted : int;
}

(* What the classifier needs of a view, computed once per batch. *)
type rule = { target : Vnl_relation.Schema.t; key_arity : int; has_count : bool }

let rule view =
  {
    target = View_def.target_schema view;
    key_arity = List.length (View_def.group_by view);
    has_count = View_def.has_count view;
  }

(* The support count, when kept, is the last aggregate. *)
let rec support = function
  | [ (_, Value.Int c) ] -> c
  | _ :: rest -> support rest
  | [] -> invalid_arg "Summary: corrupt row_count"

(* The one classifier.  [current] reads the group's current cells by base
   position (the aggregates sit at their positional offsets after the
   key), or is [None] when the group is absent or logically deleted.  An
   absent group is inserted, a present one has its aggregates adjusted,
   and a group whose support count drops to zero is deleted.  Net deltas
   carry one entry per key, so classifying every delta against the
   pre-batch state is equivalent to classifying as the batch applies.  A
   delta that cancels out on an absent group produces no operation.  The
   positional reads address an evolved view's base too: added columns
   sit after the aggregates. *)
let classify rule { Delta.key; agg_delta; count_delta; _ } current =
  match current with
  | None ->
    if count_delta < 0 then invalid_arg "Summary: negative delta for absent group";
    if count_delta > 0 then [ Batch.Insert (Tuple.make rule.target (key @ agg_delta)) ] else []
  | Some read ->
    let assignments =
      List.mapi
        (fun a v ->
          let j = rule.key_arity + a in
          (j, Value.add (read j) v))
        agg_delta
    in
    if rule.has_count && support assignments <= 0 then [ Batch.Delete key ]
    else [ Batch.Update (key, assignments) ]

let net_deltas view changes =
  Obs.with_span "summary.net_deltas" (fun () -> Delta.net_group_deltas view changes)

(* One hash-index probe per net delta, with the hash the netting pass
   already computed.  No page is read here; each change carries the
   classifier, which the executor runs on the record's bytes. *)
let changes table view changes =
  let rule = rule view in
  let deltas = net_deltas view changes in
  Obs.with_span "summary.resolve" (fun () ->
      List.map
        (fun (d : Delta.group_delta) ->
          {
            Batch.key = d.key;
            rid = Vnl_query.Table.probe table ~hash:d.hash d.key;
            decide = classify rule d;
          })
        deltas)

let plan_batch vnl view batch =
  changes (Twovnl.table (Twovnl.handle_exn vnl (View_def.name view))) view batch

let outcome_of_stats (st : Vnl_core.Maintenance.stats) =
  {
    groups_inserted = st.logical_inserts;
    groups_updated = st.logical_updates;
    groups_deleted = st.logical_deletes;
  }

(* Inside a hand-driven transaction: the refresh's changes, probed against
   the transaction's table and run by its executor. *)
let apply_batch txn view batch =
  outcome_of_stats
    (Twovnl.Txn.apply_changes txn ~table:(View_def.name view) (fun table ->
         changes table view batch))

let pp_outcome ppf o =
  Format.fprintf ppf "inserted=%d updated=%d deleted=%d" o.groups_inserted o.groups_updated
    o.groups_deleted
