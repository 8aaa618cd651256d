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
  key : Value.t list;
  mutable rid : Heap_file.rid option;  (** Existing record, resolved once. *)
  mutable orig : Tuple.t option;  (** Stored image as fetched, for [~old]. *)
  mutable cur : Tuple.t option;  (** In-memory image; [None] = absent. *)
  mutable over_delete : bool;
      (** This transaction re-inserted the key over an older logical delete
          (Table 2 row 1) — earlier in the transaction or during this
          fold; governs the Table 4 row 2 correction. *)
  mutable owned : bool;
      (** [cur] no longer aliases [orig] (a transition already copied it),
          so further transitions may mutate it in place. *)
  mutable touched : int;
}

(* The write plan a [stage] pass produces: every physical action decided,
   nothing written.  Updates and deletes are already rid-sorted, inserts
   are extended tuples in first-touch order — [apply_staged] just executes
   the lists, which is what lets the pipelined path stage every partition
   up front and apply them on worker domains. *)
type staged = {
  s_updates : (Heap_file.rid * Tuple.t option * Tuple.t) list;
  s_deletes : Heap_file.rid list;
  s_inserts : Tuple.t list;
  s_logical : int;
  s_distinct : int;
}

let op_key base = function
  | Insert t -> Tuple.key_of base t
  | Update (key, _) | Delete key -> key

(* Specialized hashtable over key-value lists: the grouping pass does one
   lookup per logical operation, and the generic structural equality/hash
   are measurably slower than the value-specialized ones. *)
module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal a b = List.length a = List.length b && List.for_all2 Value.equal a b

  (* One runtime structural-hash traversal beats per-element calls. *)
  let hash (k : t) = Hashtbl.hash k
end)

(* Tables without a unique key admit only inserts (there is no key to net
   over), each necessarily fresh: stage them directly, in order. *)
let stage_keyless ?stats ext ~vn ops =
  let st = match stats with Some s -> s | None -> Maintenance.fresh_stats () in
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
    s_updates = [];
    s_deletes = [];
    s_inserts = inserts;
    s_logical = List.length inserts;
    s_distinct = List.length inserts;
  }

let stage ?stats ?resolve ?(prenetted = false) ?(on_over_delete = fun _ -> ())
    ?(was_insert_over_delete = fun _ -> false) ext table ~vn ops =
  if not (Table.has_key table) then stage_keyless ?stats ext ~vn ops
  else begin
    let base = Schema_ext.base ext in
    let key_positions = Schema.key_indices base in
    let st = match stats with Some s -> s | None -> Maintenance.fresh_stats () in
    (* 1. Net-effect grouping: collect each key's operations, in order,
       before any storage access.  A caller that already folded the batch
       to one operation per key (the pipelined refresh stages the output
       of {!net_group_deltas} classification) promises so via [prenetted]
       and the hash-grouping pass degenerates to entry construction. *)
    let entries : entry Key_tbl.t =
      Key_tbl.create (if prenetted then 0 else max 64 (List.length ops))
    in
    let order = ref [] and distinct = ref 0 and logical = ref 0 in
    let grouped =
      Obs.with_span "batch.group" @@ fun () ->
      List.map
        (fun op ->
          incr logical;
          (match op with
          | Update (_, assignments) ->
            List.iter
              (fun (j, _) ->
                if List.mem j key_positions then
                  invalid_arg "Batch.apply: assignment to a key attribute")
              assignments
          | Insert _ | Delete _ -> ());
          let key = op_key base op in
          let fresh () =
            let e =
              {
                key;
                rid = None;
                orig = None;
                cur = None;
                over_delete = false;
                owned = false;
                touched = 0;
              }
            in
            order := e :: !order;
            incr distinct;
            e
          in
          let entry =
            if prenetted then fresh ()
            else
              match Key_tbl.find_opt entries key with
              | Some e -> e
              | None ->
                let e = fresh () in
                Key_tbl.add entries key e;
                e
          in
          (entry, op))
        ops
    in
    let order = List.rev !order in
    (* 2. One sorted pass over the key index resolves every key -> rid and
       fetches the hit records in ascending (page, slot) order.  A caller
       that already resolved these keys against the same table state (the
       pipelined refresh classifies the whole batch first) passes
       [resolve] and the index pass is skipped. *)
    let keys = Array.of_list (List.map (fun e -> e.key) order) in
    let found =
      Obs.with_span "batch.resolve" (fun () ->
          match resolve with
          | Some f -> Array.map f keys
          | None -> Table.find_many_by_key table keys)
    in
    List.iteri
      (fun i e ->
        match found.(i) with
        | Some (rid, tuple) ->
          e.rid <- Some rid;
          e.orig <- Some tuple;
          e.cur <- Some tuple;
          e.over_delete <- was_insert_over_delete rid
        | None -> ())
      order;
    (* 3. Fold each operation through the Tables 2-4 transitions on the
       in-memory image — a key touched k times costs k transitions but will
       cost one physical action.  Nothing is written yet, so a rejected
       operation (Op.Impossible, non-updatable assignment) leaves the table
       untouched. *)
    Obs.with_span "batch.fold" (fun () ->
    List.iter
      (fun (e, op) ->
        e.touched <- e.touched + 1;
        match op with
        | Insert b ->
          st.Maintenance.logical_inserts <- st.Maintenance.logical_inserts + 1;
          let fire () =
            e.over_delete <- true;
            match e.rid with
            | Some rid -> on_over_delete rid
            | None -> assert false (* Table 2 row 1 needs an existing record *)
          in
          e.cur <- Some (Maintenance.insert_tuple ~on_over_delete:fire ~own:e.owned ext ~vn e.cur b);
          e.owned <- true
        | Update (_, assignments) -> (
          st.Maintenance.logical_updates <- st.Maintenance.logical_updates + 1;
          match e.cur with
          | None -> invalid_arg "Batch.apply: update of an absent key"
          | Some existing ->
            e.cur <- Some (Maintenance.update_tuple ~own:e.owned ext ~vn existing assignments);
            e.owned <- true)
        | Delete _ -> (
          st.Maintenance.logical_deletes <- st.Maintenance.logical_deletes + 1;
          match e.cur with
          | None -> invalid_arg "Batch.apply: delete of an absent key"
          | Some existing ->
            e.cur <-
              Maintenance.delete_tuple ~insert_over_delete:e.over_delete ~own:e.owned ext ~vn
                existing;
            e.owned <- true))
      grouped);
    (* 4. Order the write plan: one physical action per touched key,
       existing records in ascending (page, slot) order, then fresh inserts
       in first-touch order (matching the slots per-op application would
       have assigned them). *)
    let updates = ref [] and deletes = ref [] and inserts = ref [] in
    List.iter
      (fun e ->
        if e.touched > 0 then
          match (e.rid, e.cur) with
          | Some rid, Some t -> updates := (rid, e.orig, t) :: !updates
          | Some rid, None -> deletes := rid :: !deletes
          | None, Some t -> inserts := t :: !inserts
          | None, None -> () (* net nothing: fresh insert cancelled by delete *))
      order;
    let by_rid (a : Heap_file.rid) (b : Heap_file.rid) =
      let c = Int.compare a.Heap_file.page b.Heap_file.page in
      if c <> 0 then c else Int.compare a.Heap_file.slot b.Heap_file.slot
    in
    {
      s_updates = List.sort (fun (a, _, _) (b, _, _) -> by_rid a b) !updates;
      s_deletes = List.sort by_rid !deletes;
      s_inserts = List.rev !inserts;
      s_logical = !logical;
      s_distinct = !distinct;
    }
  end

let staged_ops s = List.length s.s_updates + List.length s.s_deletes + List.length s.s_inserts

let staged_outcome s =
  {
    logical_ops = s.s_logical;
    distinct_keys = s.s_distinct;
    folded_ops = s.s_logical - staged_ops s;
    physical_inserts = List.length s.s_inserts;
    physical_updates = List.length s.s_updates;
    physical_deletes = List.length s.s_deletes;
  }

let apply_updates ?stats table s =
  let st = match stats with Some s -> s | None -> Maintenance.fresh_stats () in
  Obs.with_span "batch.apply" @@ fun () ->
  List.map
    (fun (rid, old, t) ->
      st.Maintenance.physical_updates <- st.Maintenance.physical_updates + 1;
      Table.update_in_place ?old table rid t;
      rid)
    s.s_updates

let apply_structural ?stats table s =
  let st = match stats with Some s -> s | None -> Maintenance.fresh_stats () in
  Obs.with_span "batch.apply" @@ fun () ->
  List.iter
    (fun rid ->
      st.Maintenance.physical_deletes <- st.Maintenance.physical_deletes + 1;
      Table.delete table rid)
    s.s_deletes;
  (* Keys were resolved absent by the sorted index pass and are distinct
     per entry, so the duplicate probe is redundant and the index entries
     can go in as one sorted batch. *)
  st.Maintenance.physical_inserts <-
    st.Maintenance.physical_inserts + List.length s.s_inserts;
  let inserted = Table.insert_many ~check:false table s.s_inserts in
  s.s_deletes @ inserted

let apply_staged ?stats table s =
  let updated = apply_updates ?stats table s in
  let structural = apply_structural ?stats table s in
  (staged_outcome s, updated @ structural)

let apply ?stats ?on_over_delete ?was_insert_over_delete ext table ~vn ops =
  let s = stage ?stats ?on_over_delete ?was_insert_over_delete ext table ~vn ops in
  fst (apply_staged ?stats table s)

let key_table_of_pairs pairs =
  let tbl = Key_tbl.create (max 16 (List.length pairs)) in
  List.iter (fun (k, v) -> Key_tbl.replace tbl k v) pairs;
  fun key -> Option.join (Key_tbl.find_opt tbl key)

let pp_outcome ppf o =
  Format.fprintf ppf "logical=%d keys=%d folded=%d phys(i/u/d)=%d/%d/%d" o.logical_ops
    o.distinct_keys o.folded_ops o.physical_inserts o.physical_updates o.physical_deletes
