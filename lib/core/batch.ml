module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Table = Vnl_query.Table
module Heap_file = Vnl_storage.Heap_file
module Obs = Vnl_obs.Obs

type op =
  | Insert of Tuple.t
  | Update of Value.t list * (int * Value.t) list
  | Delete of Value.t list

type outcome = {
  logical_ops : int;
  distinct_keys : int;
  folded_ops : int;
  physical_inserts : int;
  physical_updates : int;
  physical_deletes : int;
}

(* Per-key fold state: the record as the batch's operations on this key
   leave it, before any storage write. *)
type entry = {
  key : Value.t list;
  mutable rid : Heap_file.rid option;  (** Where the index holds the key. *)
  mutable img : bytes option;
      (** The record's bytes, [None] = absent: a private copy of the
          stored record, or a freshly encoded one, which the Tables 2-4
          transitions write in place. *)
  mutable over_delete : bool;
      (** This fold re-inserted the key over an older logical delete
          (Table 2 row 1); with [was_insert_over_delete] for earlier
          statements of the transaction, governs the Table 4 row 2
          correction. *)
}

let op_key base = function
  | Insert t -> Tuple.key_of base t
  | Update (key, _) | Delete key -> key

(* The grouping pass nets operations by key with the unique index's own
   key equality and hash, so [Int n] and [Float (float n)] are one key
   here as they are in the table. *)
module Key = Vnl_index.Hash_index.Key
module Key_tbl = Vnl_index.Hash_index.Key_tbl

let stats_of = function Some s -> s | None -> Maintenance.fresh_stats ()

let by_rid (a : Heap_file.rid) (b : Heap_file.rid) =
  let c = Int.compare a.Heap_file.page b.Heap_file.page in
  if c <> 0 then c else Int.compare a.Heap_file.slot b.Heap_file.slot

let outcome ~logical ~distinct ~inserts ~updates ~deletes =
  {
    logical_ops = logical;
    distinct_keys = distinct;
    folded_ops = logical - (inserts + updates + deletes);
    physical_inserts = inserts;
    physical_updates = updates;
    physical_deletes = deletes;
  }

let insert_fresh (st : Maintenance.stats) table fresh =
  st.physical_inserts <- st.physical_inserts + Array.length fresh;
  Table.insert_many ~check:false table fresh

(* Tables without a unique key admit only inserts (there is no key to net
   over), each necessarily fresh: insert them directly, in order. *)
let apply_keyless st ext table ~vn ops =
  let fresh =
    Array.of_list
      (List.map
         (function
           | Insert base ->
             st.Maintenance.logical_inserts <- st.Maintenance.logical_inserts + 1;
             Schema_ext.fresh_insert ext ~vn base
           | Update _ | Delete _ -> invalid_arg "Batch.apply: update/delete requires a unique key")
         ops)
  in
  Obs.with_span "batch.apply" (fun () -> ignore (insert_fresh st table fresh));
  let n = Array.length fresh in
  outcome ~logical:n ~distinct:n ~inserts:n ~updates:0 ~deletes:0

let apply ?stats ?(on_over_delete = fun _ -> ()) ?(was_insert_over_delete = fun _ -> false) ext
    table ~vn ops =
  let st = stats_of stats in
  if not (Table.has_key table) then apply_keyless st ext table ~vn ops
  else begin
    let base = Schema_ext.base ext and schema = Schema_ext.extended ext in
    let key_positions = Schema.key_indices base in
    let ops = Array.of_list ops in
    let n = Array.length ops in
    (* 1. Net-effect grouping: [entry_of.(i)] is the entry of [ops.(i)]'s
       key and [order] the distinct entries in first-touch order, built
       before any storage access. *)
    let entry_of, order =
      Obs.with_span "batch.group" @@ fun () ->
      Array.iter
        (function
          | Update (_, assignments) ->
            List.iter
              (fun (j, _) ->
                if List.mem j key_positions then
                  invalid_arg "Batch.apply: assignment to a key attribute")
              assignments
          | Insert _ | Delete _ -> ())
        ops;
      let tbl : entry Key_tbl.t = Key_tbl.create (max 64 n) in
      let order = ref [] in
      let entry_of =
        Array.map
          (fun op ->
            let key = op_key base op in
            match Key_tbl.find_opt tbl key with
            | Some e -> e
            | None ->
              let e = { key; rid = None; img = None; over_delete = false } in
              Key_tbl.add tbl key e;
              order := e :: !order;
              e)
          ops
      in
      (entry_of, List.rev !order)
    in
    (* 2. Resolve every key to its rid with one index probe, then copy the
       hit records' bytes in ascending (page, slot) order, so a small
       buffer pool sees each page once.  The fold writes only these
       private copies. *)
    let stored =
      Obs.with_span "batch.resolve" @@ fun () ->
      let hits =
        List.filter_map
          (fun e ->
            e.rid <- Table.probe table ~hash:(Key.hash e.key) e.key;
            Option.map (fun rid -> (rid, e)) e.rid)
          order
      in
      let stored = List.sort (fun (a, _) (b, _) -> by_rid a b) hits in
      List.iter (fun (rid, e) -> e.img <- Heap_file.copy_record (Table.heap table) rid) stored;
      stored
    in
    (* 3. Fold each operation through the Tables 2-4 transitions on the
       private bytes — a key touched k times costs k transitions but will
       cost one physical action.  Nothing is written yet, so a rejected
       operation (Op.Impossible, non-updatable assignment) leaves the
       table untouched. *)
    Obs.with_span "batch.fold" (fun () ->
        Array.iteri
          (fun i op ->
            let e = entry_of.(i) in
            match (op, e.img) with
            | Insert b, None ->
              st.Maintenance.logical_inserts <- st.Maintenance.logical_inserts + 1;
              (* Table 2, row 3: a freshly encoded record. *)
              let img = Bytes.create (Schema.width schema) in
              Tuple.encode_into schema (Schema_ext.fresh_insert ext ~vn b) img 0;
              e.img <- Some img
            | Insert b, Some img ->
              st.Maintenance.logical_inserts <- st.Maintenance.logical_inserts + 1;
              let fire () =
                e.over_delete <- true;
                match e.rid with
                | Some rid -> on_over_delete rid
                | None -> assert false (* Table 2 row 1 needs a stored record *)
              in
              Maintenance.insert_record ~on_over_delete:fire ext ~vn img 0 b
            | Update (_, assignments), Some img ->
              st.Maintenance.logical_updates <- st.Maintenance.logical_updates + 1;
              Maintenance.update_record ext ~vn img 0 assignments
            | Delete _, Some img ->
              st.Maintenance.logical_deletes <- st.Maintenance.logical_deletes + 1;
              (* Only a delete asks whether the transaction re-inserted
                 this key over an older delete, so only a delete pays for
                 the lookup. *)
              let insert_over_delete =
                e.over_delete
                || match e.rid with Some rid -> was_insert_over_delete rid | None -> false
              in
              if Maintenance.delete_record ~insert_over_delete ext ~vn img 0 then e.img <- None
            | Update _, None -> invalid_arg "Batch.apply: update of an absent key"
            | Delete _, None -> invalid_arg "Batch.apply: delete of an absent key")
          ops);
    (* 4. One physical action per key: stored records rewritten, then
       deleted, in ascending (page, slot) order, then fresh inserts as
       insert runs in first-touch order (the slots per-op application
       would have assigned them). *)
    Obs.with_span "batch.apply" @@ fun () ->
    let rewrites, deletes =
      List.partition_map
        (fun (rid, e) -> match e.img with Some img -> Left (rid, img) | None -> Right rid)
        stored
    in
    let rewrites = Array.of_list rewrites and width = Schema.width schema in
    Table.rewrite_many table (Array.map fst rewrites) (fun i img off ->
        Bytes.blit (snd rewrites.(i)) 0 img off width);
    st.Maintenance.physical_updates <- st.Maintenance.physical_updates + Array.length rewrites;
    List.iter
      (fun rid ->
        st.Maintenance.physical_deletes <- st.Maintenance.physical_deletes + 1;
        Table.delete table rid)
      deletes;
    (* Keys were resolved absent by the index probes and are distinct per
       entry, so the records go in without a duplicate probe. *)
    let fresh =
      Array.of_list
        (List.filter_map
           (fun e -> match (e.rid, e.img) with None, Some img -> Some (e.key, img) | _ -> None)
           order)
    in
    st.Maintenance.physical_inserts <- st.Maintenance.physical_inserts + Array.length fresh;
    ignore (Table.insert_records table fresh);
    outcome ~logical:n ~distinct:(List.length order) ~inserts:(Array.length fresh)
      ~updates:(Array.length rewrites) ~deletes:(List.length deletes)
  end

(* ---------- the refresh: one visit per changed record ---------- *)

type change = {
  key : Value.t list;
  rid : Heap_file.rid option;
  decide : (int -> Value.t) option -> op option;
}

type runs = {
  present : change array;  (** Changes whose key the probe found, rid-sorted. *)
  rids : Heap_file.rid array;  (** [present]'s rids, for the page runs. *)
  absent : change list;  (** The rest, in input order. *)
}

let rid_of c = match c.rid with Some rid -> rid | None -> assert false

let group changes =
  Obs.with_span "batch.group" @@ fun () ->
  let present, absent = List.partition (fun c -> Option.is_some c.rid) changes in
  let present = Array.of_list present in
  Array.stable_sort (fun a b -> by_rid (rid_of a) (rid_of b)) present;
  { present; rids = Array.map rid_of present; absent }

(* Each present record is classified on its page bytes and written there,
   in the same page run: the decision's row-1 transition lands on the
   slot's cells ({!Maintenance.update_record} and its siblings), and the
   table moves the record's secondary entries inside the run. *)
let apply_in_place ~stats:st ~pad ~on_over_delete ext table ~vn r =
  Obs.with_span "batch.apply" @@ fun () ->
  Table.rewrite_many table r.rids (fun i img off ->
      match r.present.(i).decide (Maintenance.current_cells ext ~vn img off) with
      | None -> ()
      | Some op -> (
        st.Maintenance.physical_updates <- st.Maintenance.physical_updates + 1;
        match pad op with
        | Insert b ->
          st.Maintenance.logical_inserts <- st.Maintenance.logical_inserts + 1;
          Maintenance.insert_record
            ~on_over_delete:(fun () -> on_over_delete r.rids.(i))
            ext ~vn img off b
        | Update (_, assignments) ->
          st.Maintenance.logical_updates <- st.Maintenance.logical_updates + 1;
          Maintenance.update_record ext ~vn img off assignments
        | Delete _ ->
          st.Maintenance.logical_deletes <- st.Maintenance.logical_deletes + 1;
          (* Row 1 ([current_cells] rejected this VN's stamps): a logical
             delete, never a physical one. *)
          ignore (Maintenance.delete_record ext ~vn img off : bool)));
  Array.fold_right (fun (rid : Heap_file.rid) acc -> rid.Heap_file.page :: acc) r.rids []

let apply_fresh ~stats:st ~pad ext table ~vn r =
  Obs.with_span "batch.apply" @@ fun () ->
  let fresh =
    List.filter_map
      (fun c ->
        match Option.map pad (c.decide None) with
        | None -> None
        | Some (Insert b) ->
          st.Maintenance.logical_inserts <- st.Maintenance.logical_inserts + 1;
          Some (Schema_ext.fresh_insert ext ~vn b)
        | Some (Update _) -> invalid_arg "Batch.apply: update of an absent key"
        | Some (Delete _) -> invalid_arg "Batch.apply: delete of an absent key")
      r.absent
  in
  Array.to_list (insert_fresh st table (Array.of_list fresh))
