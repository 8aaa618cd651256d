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

(* Per-key fold state: the record image as the batch's operations on this
   key leave it, before any storage write. *)
type entry = {
  mutable stored : (Heap_file.rid * Tuple.t) option;
      (** Existing record and its image as fetched (for [~old]), resolved
          once. *)
  mutable cur : Tuple.t option;
      (** In-memory image; [None] = absent.  Never aliases the stored
          image (it starts as a copy), so the transitions mutate it in
          place. *)
  mutable over_delete : bool;
      (** This fold re-inserted the key over an older logical delete
          (Table 2 row 1); with [was_insert_over_delete] for earlier
          statements of the transaction, governs the Table 4 row 2
          correction. *)
}

(* The write plan a [stage] pass produces: every physical action decided,
   nothing written.  Updates and deletes are already rid-sorted, inserts
   are extended tuples in first-touch order — [apply_staged] just executes
   them. *)
type staged = {
  s_updates : (Heap_file.rid * Tuple.t) array;
  s_olds : Tuple.t array;  (** Stored image of each [s_updates] record. *)
  s_deletes : (Heap_file.rid * Tuple.t) list;  (** With the stored image. *)
  s_inserts : Tuple.t list;
  s_logical : int;
  s_distinct : int;
}

let op_key base = function
  | Insert t -> Tuple.key_of base t
  | Update (key, _) | Delete key -> key

(* The grouping pass nets operations by key with the unique index's own
   key equality and hash, so [Int n] and [Float (float n)] are one key
   here as they are in the table. *)
module Key_tbl = Vnl_index.Hash_index.Key_tbl

let stats_of = function Some s -> s | None -> Maintenance.fresh_stats ()

(* Tables without a unique key admit only inserts (there is no key to net
   over), each necessarily fresh: stage them directly, in order. *)
let stage_keyless ?stats ext ~vn ops =
  let st = stats_of stats in
  let inserts =
    List.map
      (fun op ->
        match op with
        | Insert base ->
          st.Maintenance.logical_inserts <- st.Maintenance.logical_inserts + 1;
          Maintenance.insert_tuple ext ~vn None base
        | Update _ | Delete _ ->
          invalid_arg "Batch.apply: update/delete requires a unique key")
      ops
  in
  {
    s_updates = [||];
    s_olds = [||];
    s_deletes = [];
    s_inserts = inserts;
    s_logical = List.length inserts;
    s_distinct = List.length inserts;
  }

let fresh_entry () = { stored = None; cur = None; over_delete = false }

let by_rid (a : Heap_file.rid) (b : Heap_file.rid) =
  let c = Int.compare a.Heap_file.page b.Heap_file.page in
  if c <> 0 then c else Int.compare a.Heap_file.slot b.Heap_file.slot

let stage ?stats ?(on_over_delete = fun _ -> ())
    ?(was_insert_over_delete = fun _ -> false) ext table ~vn ops =
  if not (Table.has_key table) then stage_keyless ?stats ext ~vn ops
  else begin
    let base = Schema_ext.base ext in
    let key_positions = Schema.key_indices base in
    let st = stats_of stats in
    let ops = Array.of_list ops in
    let n = Array.length ops in
    (* 1. Net-effect grouping: [entry_of.(i)] is the entry of [ops.(i)]'s
       key and [order] the distinct entries in first-touch order, built
       before any storage access. *)
    let entry_of, order, keys =
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
      let order = ref [] and keys = ref [] in
      let entry_of =
        Array.map
          (fun op ->
            let key = op_key base op in
            match Key_tbl.find_opt tbl key with
            | Some e -> e
            | None ->
              let e = fresh_entry () in
              Key_tbl.add tbl key e;
              order := e :: !order;
              keys := key :: !keys;
              e)
          ops
      in
      (entry_of, Array.of_list (List.rev !order), Array.of_list (List.rev !keys))
    in
    (* 2. Resolve every key -> stored record: one index probe per key,
       then the hit records fetched in ascending (page, slot) order.  The
       fold works on a private copy of each stored record, made once here,
       so every Tables 2-4 transition writes its cells in place; [orig]
       stays the stored image the apply passes as [~old]. *)
    let found = Obs.with_span "batch.resolve" (fun () -> Table.find_many_by_key table keys) in
    Array.iteri
      (fun i e ->
        match found.(i) with
        | Some (_, tuple) as stored ->
          e.stored <- stored;
          e.cur <- Some (Tuple.copy tuple)
        | None -> ())
      order;
    (* 3. Fold each operation through the Tables 2-4 transitions on the
       in-memory image — a key touched k times costs k transitions but will
       cost one physical action.  Nothing is written yet, so a rejected
       operation (Op.Impossible, non-updatable assignment) leaves the table
       untouched. *)
    Obs.with_span "batch.fold" (fun () ->
        Array.iteri
          (fun i op ->
            let e = entry_of.(i) in
            match op with
            | Insert b ->
              st.Maintenance.logical_inserts <- st.Maintenance.logical_inserts + 1;
              let fire () =
                e.over_delete <- true;
                match e.stored with
                | Some (rid, _) -> on_over_delete rid
                | None -> assert false (* Table 2 row 1 needs an existing record *)
              in
              e.cur <-
                Some (Maintenance.insert_tuple ~on_over_delete:fire ~own:true ext ~vn e.cur b)
            | Update (_, assignments) -> (
              st.Maintenance.logical_updates <- st.Maintenance.logical_updates + 1;
              match e.cur with
              | None -> invalid_arg "Batch.apply: update of an absent key"
              | Some existing ->
                e.cur <- Some (Maintenance.update_tuple ~own:true ext ~vn existing assignments))
            | Delete _ -> (
              st.Maintenance.logical_deletes <- st.Maintenance.logical_deletes + 1;
              match e.cur with
              | None -> invalid_arg "Batch.apply: delete of an absent key"
              | Some existing ->
                (* Only a delete asks whether the transaction re-inserted
                   this key over an older delete, so only a delete pays for
                   the lookup. *)
                let insert_over_delete =
                  e.over_delete
                  || match e.stored with Some (rid, _) -> was_insert_over_delete rid | None -> false
                in
                e.cur <-
                  Maintenance.delete_tuple ~insert_over_delete ~own:true ext ~vn existing))
          ops);
    (* 4. Order the write plan: one physical action per key, existing
       records in ascending (page, slot) order, then fresh inserts in
       first-touch order (matching the slots per-op application would have
       assigned them). *)
    let updates = ref [] and deletes = ref [] and inserts = ref [] in
    for i = Array.length order - 1 downto 0 do
      let e = order.(i) in
      match (e.stored, e.cur) with
      | Some (rid, orig), Some t -> updates := (rid, orig, t) :: !updates
      | Some stored, None -> deletes := stored :: !deletes
      | None, Some t -> inserts := t :: !inserts
      | None, None -> () (* net nothing: fresh insert cancelled by delete *)
    done;
    let updates = Array.of_list !updates in
    Array.stable_sort (fun (a, _, _) (b, _, _) -> by_rid a b) updates;
    {
      s_updates = Array.map (fun (rid, _, t) -> (rid, t)) updates;
      s_olds = Array.map (fun (_, orig, _) -> orig) updates;
      s_deletes = List.sort (fun (a, _) (b, _) -> by_rid a b) !deletes;
      s_inserts = !inserts;
      s_logical = n;
      s_distinct = Array.length order;
    }
  end

let staged_ops s = Array.length s.s_updates + List.length s.s_deletes + List.length s.s_inserts

let staged_outcome s =
  {
    logical_ops = s.s_logical;
    distinct_keys = s.s_distinct;
    folded_ops = s.s_logical - staged_ops s;
    physical_inserts = List.length s.s_inserts;
    physical_updates = Array.length s.s_updates;
    physical_deletes = List.length s.s_deletes;
  }

let apply_staged ?stats table s =
  let st = stats_of stats in
  Obs.with_span "batch.apply" @@ fun () ->
  st.Maintenance.physical_updates <- st.Maintenance.physical_updates + Array.length s.s_updates;
  Table.update_many ~olds:s.s_olds table s.s_updates;
  List.iter
    (fun (rid, old) ->
      st.Maintenance.physical_deletes <- st.Maintenance.physical_deletes + 1;
      Table.delete ~old table rid)
    s.s_deletes;
  (* Keys were resolved absent by the index probes and are distinct per
     entry, so the duplicate probe is redundant; the inserts go in as
     insert runs. *)
  st.Maintenance.physical_inserts <-
    st.Maintenance.physical_inserts + List.length s.s_inserts;
  let inserted = Table.insert_many ~check:false table (Array.of_list s.s_inserts) in
  ( staged_outcome s,
    Array.fold_right
      (fun (rid, _) acc -> rid :: acc)
      s.s_updates
      (List.map fst s.s_deletes @ Array.to_list inserted) )

let apply ?stats ?on_over_delete ?was_insert_over_delete ext table ~vn ops =
  let s = stage ?stats ?on_over_delete ?was_insert_over_delete ext table ~vn ops in
  fst (apply_staged ?stats table s)

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
          Maintenance.delete_record ext ~vn img off));
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
  let fresh = Array.of_list fresh in
  st.Maintenance.physical_inserts <- st.Maintenance.physical_inserts + Array.length fresh;
  Array.to_list (Table.insert_many ~check:false table fresh)
