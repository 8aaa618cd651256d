module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
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

type change = {
  key : Value.t list;
  rid : Heap_file.rid option;
  decide : (int -> Value.t) option -> op list;
}

type runs = {
  present : change array;  (** Changes whose key the probe found, rid-sorted. *)
  rids : Heap_file.rid array;  (** [present]'s rids, for the page runs. *)
  absent : change list;  (** The rest, in input order. *)
}

let by_rid (a : Heap_file.rid) (b : Heap_file.rid) =
  let c = Int.compare a.Heap_file.page b.Heap_file.page in
  if c <> 0 then c else Int.compare a.Heap_file.slot b.Heap_file.slot

let rid_of c = match c.rid with Some rid -> rid | None -> assert false

let group changes =
  Obs.with_span "batch.group" @@ fun () ->
  let present, absent = List.partition (fun c -> Option.is_some c.rid) changes in
  let present = Array.of_list present in
  Array.stable_sort (fun a b -> by_rid (rid_of a) (rid_of b)) present;
  { present; rids = Array.map rid_of present; absent }

(* Whether a key is live after [ops], starting from [live]: the liveness
   half of Tables 2-4.  An insert over a live key, or an update or delete
   of a key that is not live, raises — {!Op.Impossible} when a record
   holds the key ([stored]), as its transition would, [Invalid_argument]
   when none does. *)
let refuse ~stored what =
  let msg = "Batch: " ^ what in
  if stored then raise (Op.Impossible msg) else invalid_arg msg

let rec ends_live ~stored live = function
  | [] -> live
  | op :: rest ->
    let live =
      match (op, live) with
      | Insert _, false | Update _, true -> true
      | Delete _, true -> false
      | Insert _, true -> refuse ~stored "insert over a live key"
      | Update _, false -> refuse ~stored "update of an absent key"
      | Delete _, false -> refuse ~stored "delete of an absent key"
    in
    ends_live ~stored live rest

let count_logical (st : Maintenance.stats) = function
  | Insert _ -> st.logical_inserts <- st.logical_inserts + 1
  | Update _ -> st.logical_updates <- st.logical_updates + 1
  | Delete _ -> st.logical_deletes <- st.logical_deletes + 1

(* One key's operations, in order, through [pad], on its record's bytes
   at [off] in [img], each through its Tables 2-4 transition.  [present]
   says whether the bytes hold the key's record; an insert where none
   does encodes a fresh one there (Table 2 row 3).  [rid] is the stored
   record's address ([None] for a fresh insert), for the transaction's
   over-delete bookkeeping; [over_delete] says whether an earlier op
   re-inserted the key over an older logical delete.  Returns whether the
   record is still there: [false] after a delete of this transaction's
   fresh insert (Table 4 row 2), which the caller deletes physically. *)
let rec run_ops st ~pad ~on_over_delete ~was_insert_over_delete ext ~vn ~rid img off ~present
    ~over_delete = function
  | [] -> present
  | op :: rest ->
    count_logical st op;
    let present, over_delete =
      match (pad op, present) with
      | Insert b, false ->
        Tuple.encode_into (Schema_ext.extended ext) (Schema_ext.fresh_insert ext ~vn b) img off;
        (true, over_delete)
      | Insert b, true ->
        let fired = ref false in
        let on_over_delete () =
          fired := true;
          match rid with Some rid -> on_over_delete rid | None -> assert false
        in
        Maintenance.insert_record ~on_over_delete ext ~vn img off b;
        (true, over_delete || !fired)
      | Update (_, assignments), true ->
        Maintenance.update_record ext ~vn img off assignments;
        (true, over_delete)
      | Delete _, true ->
        (* A re-insert over an older logical delete, by this batch or an
           earlier statement, governs the Table 4 row 2 correction. *)
        let insert_over_delete =
          over_delete || match rid with Some rid -> was_insert_over_delete rid | None -> false
        in
        (not (Maintenance.delete_record ~insert_over_delete ext ~vn img off), over_delete)
      | (Update _ | Delete _), false -> invalid_arg "Batch: update or delete of an absent key"
    in
    run_ops st ~pad ~on_over_delete ~was_insert_over_delete ext ~vn ~rid img off ~present
      ~over_delete rest

let apply_in_place ~row2 ~stats:st ~pad ~on_over_delete ?(was_insert_over_delete = fun _ -> false)
    ext table ~vn r =
  Obs.with_span "batch.apply" @@ fun () ->
  let gone = ref [] in
  Table.rewrite_many table r.rids (fun i img off ->
      match r.present.(i).decide (Maintenance.current_cells ~row2 ext ~vn img off) with
      | [] -> ()
      | ops ->
        let rid = r.rids.(i) in
        if
          run_ops st ~pad ~on_over_delete ~was_insert_over_delete ext ~vn ~rid:(Some rid) img off
            ~present:true ~over_delete:false ops
        then st.Maintenance.physical_updates <- st.Maintenance.physical_updates + 1
        else gone := rid :: !gone);
  List.iter
    (fun rid ->
      st.Maintenance.physical_deletes <- st.Maintenance.physical_deletes + 1;
      Table.delete table rid)
    (List.rev !gone);
  Array.fold_right (fun (rid : Heap_file.rid) acc -> rid.Heap_file.page :: acc) r.rids []

let apply_fresh ~stats:st ~pad ext table ~vn r =
  Obs.with_span "batch.apply" @@ fun () ->
  let fresh =
    Array.of_list
      (List.filter_map
         (fun c ->
           let ops = c.decide None in
           if ends_live ~stored:false false ops then Some (c.key, ops)
           else begin
             (* Ops that leave the key absent write nothing. *)
             List.iter (count_logical st) ops;
             None
           end)
         r.absent)
  in
  st.Maintenance.physical_inserts <- st.Maintenance.physical_inserts + Array.length fresh;
  Array.to_list
    (Table.insert_records table (Array.length fresh)
       ~key:(fun i -> fst fresh.(i))
       (fun i img off ->
         ignore
           (run_ops st ~pad ~on_over_delete:ignore ~was_insert_over_delete:(fun _ -> false) ext ~vn
              ~rid:None img off ~present:false ~over_delete:false (snd fresh.(i))
             : bool)))

let run ~stats ~pad ~on_over_delete ?was_insert_over_delete ext table ~vn r =
  ignore
    (apply_in_place ~row2:true ~stats ~pad ~on_over_delete ?was_insert_over_delete ext table ~vn r
      : int list);
  ignore (apply_fresh ~stats ~pad ext table ~vn r : Heap_file.rid list)

(* ---------- hand-driven batches ---------- *)

let op_key base = function
  | Insert t -> Tuple.key_of base t
  | Update (key, _) | Delete key -> key

(* The grouping pass nets operations by key with the unique index's own
   key equality and hash, so [Int n] and [Float (float n)] are one key
   here as they are in the table. *)
module Key = Vnl_index.Hash_index.Key
module Key_tbl = Vnl_index.Hash_index.Key_tbl

(* Validate a whole batch before its first write, and group it for the
   runs: each key one change whose operations run in order.  Every value
   goes through the transitions' own checks, and each key is probed once
   in the unique-key index; the stored ones then have slot 1's stamp read
   on their bytes, in (page, slot) order so a small pool sees each page
   once, as the page runs will.  A key's operations must respect its
   liveness, whichever transaction stamped it.  What passes, no
   transition refuses. *)
let plan ext table ops =
  let base = Schema_ext.base ext in
  List.iter
    (function
      | Insert b -> Maintenance.check_insert ext b
      | Update (_, assignments) -> Maintenance.check_update ext assignments
      | Delete _ -> ())
    ops;
  let change key rid ops = { key; rid; decide = (fun _ -> ops) } in
  if not (Table.has_key table) then
    (* No key to net over: inserts only, each its own fresh record. *)
    {
      present = [||];
      rids = [||];
      absent =
        List.map
          (function
            | Insert _ as op -> change (op_key base op) None [ op ]
            | Update _ | Delete _ -> invalid_arg "Batch.apply: update/delete requires a unique key")
          ops;
    }
  else begin
    let tbl = Key_tbl.create (max 64 (List.length ops)) and order = ref [] in
    List.iter
      (fun op ->
        let key = op_key base op in
        match Key_tbl.find_opt tbl key with
        | Some ops -> ops := op :: !ops
        | None ->
          let ops = ref [ op ] in
          Key_tbl.add tbl key ops;
          order := (key, ops) :: !order)
      ops;
    let stored = ref [] and absent = ref [] in
    List.iter
      (fun (key, ops) ->
        let ops = List.rev !ops in
        match Table.probe table ~hash:(Key.hash key) key with
        | Some rid -> stored := (rid, change key (Some rid) ops, ops) :: !stored
        | None ->
          ignore (ends_live ~stored:false false ops : bool);
          absent := change key None ops :: !absent)
      !order;
    let stored = Array.of_list !stored in
    Array.stable_sort (fun (a, _, _) (b, _, _) -> by_rid a b) stored;
    Array.iter
      (fun (rid, _, ops) ->
        let live =
          match Heap_file.read_record (Table.heap table) rid (Maintenance.record_stamp ext) with
          | Some (Some (_, (Op.Insert | Op.Update))) -> true
          | Some (Some (_, Op.Delete) | None) | None -> false
        in
        ignore (ends_live ~stored:true live ops : bool))
      stored;
    {
      present = Array.map (fun (_, c, _) -> c) stored;
      rids = Array.map (fun (rid, _, _) -> rid) stored;
      absent = !absent;
    }
  end

let apply ?(stats = Maintenance.fresh_stats ()) ?(on_over_delete = ignore) ?was_insert_over_delete
    ext table ~vn ops =
  let r = Obs.with_span "batch.group" (fun () -> plan ext table ops) in
  let st = Maintenance.fresh_stats () in
  run ~stats:st ~pad:Fun.id ~on_over_delete ?was_insert_over_delete ext table ~vn r;
  Maintenance.add_stats ~into:stats st;
  let logical = List.length ops in
  {
    logical_ops = logical;
    distinct_keys = Array.length r.present + List.length r.absent;
    folded_ops = logical - (st.physical_inserts + st.physical_updates + st.physical_deletes);
    physical_inserts = st.physical_inserts;
    physical_updates = st.physical_updates;
    physical_deletes = st.physical_deletes;
  }
