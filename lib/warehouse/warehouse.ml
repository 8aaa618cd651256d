module Twovnl = Vnl_core.Twovnl
module Database = Vnl_query.Database
module Pipeline = Vnl_core.Pipeline
module Batch = Vnl_core.Batch
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value

type entry = {
  def : View_def.t;
  source : Source.t;
  mutable queue : Delta.change list;  (** Reverse order. *)
  mutable added : (Schema.attribute * Value.t) list;
      (** Columns appended by {!evolve} (oldest first) with their defaults;
          the view template in [def] stays at its original arity and the
          maintenance paths pad, so ground-truth recomputation appends the
          defaults the same way. *)
}

type t = {
  vnl : Twovnl.t;
  db : Database.t;
  entries : (string, entry) Hashtbl.t;
  mutable order : string list;  (** View names in registration order. *)
}

let fresh_entry def =
  { def; source = Source.create (View_def.source def); queue = []; added = [] }

let create ?n ?page_size ?pool_capacity defs =
  let db = Database.create ?page_size ?pool_capacity () in
  let vnl = Twovnl.init db in
  let entries = Hashtbl.create (max 8 (List.length defs)) in
  List.iter
    (fun def ->
      ignore
        (Twovnl.register_table vnl ?n ~name:(View_def.name def)
           (View_def.target_schema def));
      Hashtbl.replace entries (View_def.name def) (fresh_entry def))
    defs;
  { vnl; db; entries; order = List.map View_def.name defs }

let vnl t = t.vnl

let database t = t.db

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None -> failwith (Printf.sprintf "Warehouse: unknown view %S" name)

let view t name = (entry t name).def

let views t = List.map (fun name -> (entry t name).def) t.order

let source t name = (entry t name).source

let queue_changes t ~view changes =
  let e = entry t view in
  Source.apply e.source changes;
  e.queue <- List.rev_append changes e.queue

let pending t ~view = List.length (entry t view).queue

let peek_pending t ~view = List.rev (entry t view).queue

let take_pending t ~view =
  let e = entry t view in
  let batch = List.rev e.queue in
  e.queue <- [];
  batch

(* The list is newest-first, so the front of the logical queue is the
   tail of the list. *)
let requeue t ~view changes =
  let e = entry t view in
  e.queue <- e.queue @ List.rev changes

(* The source changes a failed refresh did NOT durably propagate, in their
   original arrival order.  [published name key] says whether view [name]'s
   group [key] belongs to the round's published stripe prefix: those
   groups' net deltas committed, everything else was reverted by the
   abort.  A change whose groups all published is dropped; one whose
   groups all missed is requeued whole; an update straddling the boundary
   (its old and new rows in different groups, one published) is requeued
   as only its unpublished half — re-running the published half would
   double-apply it. *)
let unpublished_suffix def published batch =
  let mem row = published (View_def.name def) (View_def.group_key def row) in
  List.filter_map
    (fun change ->
      match change with
      | Delta.Insert row | Delta.Delete row -> if mem row then None else Some change
      | Delta.Update (old_row, new_row) -> (
        match (mem old_row, mem new_row) with
        | true, true -> None
        | false, false -> Some change
        | true, false -> Some (Delta.Insert new_row)
        | false, true -> Some (Delta.Delete old_row)))
    batch

(* The group keys of the published stripe prefix, by view: a round's
   change keys are exactly the view-table key values, one per group. *)
let published_groups = function
  | None -> fun _ _ -> false
  | Some plan ->
    let groups = Hashtbl.create 64 in
    List.iteri
      (fun i (_, per_table) ->
        if i < Pipeline.published plan then
          List.iter
            (fun (name, keys) -> List.iter (fun key -> Hashtbl.replace groups (name, key) ()) keys)
            per_table)
      (Pipeline.stripe_keys plan);
    fun name key -> Hashtbl.mem groups (name, key)

(* One refresh is one pipelined round ({!Vnl_core.Pipeline}): drain every
   queue, net each view's batch and probe each group's rid
   ({!Summary.plan_batch}), then partition, classify-and-write and publish
   the stripes under the flag -> data -> catalog -> publish ladder.  With
   [workers = 1] the round is a single stripe on the calling domain.

   The queues are drained and the simulated sources already hold the
   changes, so a failure anywhere — classification, planning, a stripe —
   requeues the changes the round did not publish, in their original
   order, before re-raising: no queued change is ever lost, and a
   follow-up refresh converges. *)
let refresh ?(workers = 1) ?on_phase ?(run = Pipeline.run) t =
  let module Obs = Vnl_obs.Obs in
  Obs.with_span "warehouse.refresh" @@ fun () ->
  Obs.with_span "maintenance.txn" @@ fun () ->
  let drained = List.map (fun name -> (entry t name, take_pending t ~view:name)) t.order in
  let plan = ref None in
  try
    let changes =
      Obs.with_span "maintenance.apply" (fun () ->
          List.map (fun (e, batch) -> (View_def.name e.def, Summary.plan_batch t.vnl e.def batch))
            drained)
    in
    let p = Pipeline.plan t.vnl ?on_phase ~workers changes in
    plan := Some p;
    ignore (run p);
    (* The counts are exact once every stripe has published. *)
    List.map (fun (name, _) -> Summary.outcome_of_stats (Pipeline.stats p ~table:name)) changes
  with exn ->
    let published = published_groups !plan in
    List.iter
      (fun (e, batch) ->
        requeue t ~view:(View_def.name e.def) (unpublished_suffix e.def published batch))
      drained;
    raise exn

(* ---------- online schema evolution ---------- *)

type evolution =
  | Add_column of {
      view : string;
      attr : Schema.attribute;
      default : Vnl_relation.Value.t;
    }
  | Add_view of { def : View_def.t; n : int option }
  | Add_index of { view : string; index : string; attrs : string list }

(* One maintenance transaction carrying only DDL, under the same
   flag → data → catalog → publish ladder as a refresh: a crash at any
   write reopens to exactly the pre- or post-evolution catalog.  The
   warehouse-level registry (entries, order, added-column lists) is
   updated only after the transaction returns, i.e. after the publish —
   on any failure the in-memory warehouse still matches the restored
   on-disk catalog. *)
let evolve t evolutions =
  Vnl_obs.Obs.with_span "warehouse.evolve" @@ fun () ->
  ignore
    (Vnl_core.Recovery.run_maintenance t.db t.vnl (fun txn ->
         List.iter
           (function
             | Add_column { view; attr; default } ->
               ignore (entry t view);
               Twovnl.Txn.add_column txn ~table:view attr ~default
             | Add_view { def; n } ->
               Twovnl.Txn.add_table txn ?n ~name:(View_def.name def)
                 (View_def.target_schema def)
             | Add_index { view; index; attrs } ->
               ignore (entry t view);
               Twovnl.Txn.add_index txn ~table:view ~index attrs)
           evolutions));
  List.iter
    (function
      | Add_column { view; attr; default } ->
        let e = entry t view in
        e.added <- e.added @ [ (attr, default) ]
      | Add_view { def; n = _ } ->
        let name = View_def.name def in
        Hashtbl.replace t.entries name (fresh_entry def);
        t.order <- t.order @ [ name ]
      | Add_index _ -> ())
    evolutions

let catalog_generation t = Twovnl.catalog_generation t.vnl

let begin_session t = Twovnl.Session.begin_ t.vnl

let end_session t s = Twovnl.Session.end_ t.vnl s

let query ?params t s sql = Twovnl.Session.query ?params t.vnl s sql

let read_view t s name = Twovnl.Session.read_table t.vnl s name

let expected_view t name =
  let e = entry t name in
  let rows = Source.compute_view e.source e.def in
  match e.added with
  | [] -> rows
  | added ->
    (* Ground truth for an evolved view: the recomputed groups carry the
       added columns' defaults — exactly what the copy did for existing
       rows and what padding does for refreshed ones. *)
    let schema =
      List.fold_left (fun s (a, _) -> Schema.extend_with s a) (View_def.target_schema e.def) added
    in
    let defaults = List.map snd added in
    List.map (fun tup -> Tuple.make schema (Tuple.values tup @ defaults)) rows

let collect_garbage t = Twovnl.collect_garbage t.vnl
