module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Table = Vnl_query.Table

type stats = {
  mutable logical_inserts : int;
  mutable logical_updates : int;
  mutable logical_deletes : int;
  mutable physical_inserts : int;
  mutable physical_updates : int;
  mutable physical_deletes : int;
}

let fresh_stats () =
  {
    logical_inserts = 0;
    logical_updates = 0;
    logical_deletes = 0;
    physical_inserts = 0;
    physical_updates = 0;
    physical_deletes = 0;
  }

let count f = function Some s -> f s | None -> ()

let push_back ext tuple =
  let nslots = Schema_ext.slots ext in
  if nslots = 1 then tuple
  else begin
    (* Move slot i into slot i+1, oldest first so nothing is clobbered. *)
    let updates = ref [] in
    for slot = nslots - 1 downto 1 do
      let src_vn = Schema_ext.tuple_vn_index ext ~slot
      and dst_vn = Schema_ext.tuple_vn_index ext ~slot:(slot + 1)
      and src_op = Schema_ext.operation_index ext ~slot
      and dst_op = Schema_ext.operation_index ext ~slot:(slot + 1) in
      updates := (dst_vn, Tuple.get tuple src_vn) :: (dst_op, Tuple.get tuple src_op) :: !updates;
      let src_pre = Schema_ext.pre_indices ext ~slot
      and dst_pre = Schema_ext.pre_indices ext ~slot:(slot + 1) in
      Array.iteri
        (fun r src -> updates := (dst_pre.(r), Tuple.get tuple src) :: !updates)
        src_pre
    done;
    Tuple.set_many tuple !updates
  end

(* Inverse of push_back: slot_i <- slot_{i+1}, emptying the last slot.
   Used to restore a tuple's pushed-back history (abort, and the
   insert-over-delete-then-delete case below). *)
let shift_forward ext tuple =
  let updates = ref [] in
  let nslots = Schema_ext.slots ext in
  for slot = 1 to nslots - 1 do
    let src_vn = Schema_ext.tuple_vn_index ext ~slot:(slot + 1)
    and dst_vn = Schema_ext.tuple_vn_index ext ~slot
    and src_op = Schema_ext.operation_index ext ~slot:(slot + 1)
    and dst_op = Schema_ext.operation_index ext ~slot in
    updates := (dst_vn, Tuple.get tuple src_vn) :: (dst_op, Tuple.get tuple src_op) :: !updates;
    let src_pre = Schema_ext.pre_indices ext ~slot:(slot + 1)
    and dst_pre = Schema_ext.pre_indices ext ~slot in
    Array.iteri
      (fun r src -> updates := (dst_pre.(r), Tuple.get tuple src) :: !updates)
      src_pre
  done;
  updates := (Schema_ext.tuple_vn_index ext ~slot:nslots, Value.Null) :: !updates;
  updates := (Schema_ext.operation_index ext ~slot:nslots, Value.Null) :: !updates;
  Array.iter
    (fun i -> updates := (i, Value.Null) :: !updates)
    (Schema_ext.pre_indices ext ~slot:nslots);
  Tuple.set_many tuple !updates

let slot1_vn ext tuple =
  match Schema_ext.tuple_vn ext ~slot:1 tuple with
  | Some vn -> vn
  | None -> invalid_arg "Maintenance: tuple without slot 1"

(* Write slot 1 bookkeeping, optionally the pre-update values, and the
   [set] base-attribute assignments, all in one tuple copy.  [`From_current]
   pre values are read from [tuple] before [set] lands, so they capture the
   pre-assignment state.  With [in_place] the tuple is mutated instead of
   copied — only for callers that own the sole reference (the batch fold). *)
let set_slot1 ?(in_place = false) ?(set = []) ext tuple ~vn ~op ~pre =
  if in_place then begin
    (* Sole-reference fast path (the batch fold): write fields directly,
       no update list.  Pre copies land before [set] so they capture the
       pre-assignment state; [set] runs reversed to preserve the list
       path's first-assignment-wins order on duplicate positions. *)
    (match pre with
    | `Keep -> ()
    | `Nulls ->
      Array.iter
        (fun i -> Tuple.unsafe_set_in_place tuple i Value.Null)
        (Schema_ext.pre_indices ext ~slot:1)
    | `From_current ->
      let pre1 = Schema_ext.pre_indices ext ~slot:1
      and upd = Schema_ext.updatable_array ext in
      Array.iteri
        (fun r j ->
          Tuple.unsafe_set_in_place tuple pre1.(r)
            (Tuple.get tuple (Schema_ext.base_index ext j)))
        upd);
    List.iter
      (fun (j, v) -> Tuple.unsafe_set_in_place tuple (Schema_ext.base_index ext j) v)
      (List.rev set);
    Tuple.unsafe_set_in_place tuple (Schema_ext.tuple_vn_index ext ~slot:1) (Value.Int vn);
    Tuple.unsafe_set_in_place tuple (Schema_ext.operation_index ext ~slot:1) (Op.to_value op);
    tuple
  end
  else begin
    let updates =
      ref
        [
          (Schema_ext.tuple_vn_index ext ~slot:1, Value.Int vn);
          (Schema_ext.operation_index ext ~slot:1, Op.to_value op);
        ]
    in
    List.iter (fun (j, v) -> updates := (Schema_ext.base_index ext j, v) :: !updates) set;
    (match pre with
    | `Keep -> ()
    | `Nulls ->
      Array.iter
        (fun i -> updates := (i, Value.Null) :: !updates)
        (Schema_ext.pre_indices ext ~slot:1)
    | `From_current ->
      let pre1 = Schema_ext.pre_indices ext ~slot:1
      and upd = Schema_ext.updatable_array ext in
      Array.iteri
        (fun r j ->
          updates := (pre1.(r), Tuple.get tuple (Schema_ext.base_index ext j)) :: !updates)
        upd);
    Tuple.set_many tuple !updates
  end

let check_updatable ext assignments =
  List.iter
    (fun (j, _) ->
      if not (Schema_ext.is_updatable ext j) then
        invalid_arg (Printf.sprintf "Maintenance: base attribute %d is not updatable" j))
    assignments

let is_logically_live ext tuple =
  match Schema_ext.operation ext ~slot:1 tuple with
  | Op.Delete -> false
  | Op.Insert | Op.Update -> true

(* ------------------------------------------------------------------ *)
(* Pure tuple transitions (Tables 2-4).                               *)
(*                                                                    *)
(* Each function maps the in-memory image of a record to the image    *)
(* the logical operation leaves behind, without touching storage.     *)
(* The per-op appliers below wrap them with one table read and one    *)
(* physical action; the batched path (Batch) folds a whole batch      *)
(* through them and performs a single physical action per key, which  *)
(* is what makes batched and per-op application byte-identical: both  *)
(* run exactly this code.                                             *)
(* ------------------------------------------------------------------ *)

let insert_tuple ?(on_over_delete = fun () -> ()) ?(own = false) ext ~vn existing base_tuple =
  match existing with
  | None ->
    (* Table 2, row 3: no conflicting tuple. *)
    Schema_ext.fresh_insert ext ~vn base_tuple
  | Some existing ->
    let prev_op = Schema_ext.operation ext ~slot:1 existing in
    let mv = List.mapi (fun j v -> (j, v)) (Tuple.values base_tuple) in
    let tvn = slot1_vn ext existing in
    if tvn < vn then begin
      (* Table 2, row 1: conflict from an older transaction — only a
         logically deleted tuple can collide. *)
      Op.check_older_txn ~previous:prev_op Op.Insert;
      on_over_delete ();
      let t = push_back ext existing in
      set_slot1 ~in_place:own ~set:mv ext t ~vn ~op:Op.Insert ~pre:`Nulls
    end
    else begin
      (* Table 2, row 2: conflict with this same transaction. *)
      match Op.combine_same_txn ~previous:prev_op Op.Insert with
      | `Becomes net -> set_slot1 ~in_place:own ~set:mv ext existing ~vn ~op:net ~pre:`Keep
      | `Physically_delete -> assert false (* insert never physically deletes *)
    end

let update_tuple ?(own = false) ext ~vn existing assignments =
  check_updatable ext assignments;
  let prev_op = Schema_ext.operation ext ~slot:1 existing in
  let tvn = slot1_vn ext existing in
  if tvn < vn then begin
    (* Table 3, row 1. *)
    Op.check_older_txn ~previous:prev_op Op.Update;
    let t = push_back ext existing in
    set_slot1 ~in_place:own ~set:assignments ext t ~vn ~op:Op.Update ~pre:`From_current
  end
  else begin
    (* Table 3, row 2: net effect keeps the existing operation. *)
    match Op.combine_same_txn ~previous:prev_op Op.Update with
    | `Becomes net -> set_slot1 ~in_place:own ~set:assignments ext existing ~vn ~op:net ~pre:`Keep
    | `Physically_delete -> assert false
  end

let delete_tuple ?(insert_over_delete = false) ?(own = false) ext ~vn existing =
  let prev_op = Schema_ext.operation ext ~slot:1 existing in
  let tvn = slot1_vn ext existing in
  if tvn < vn then begin
    (* Table 4, row 1: logical delete is a physical update preserving the
       pre-update version. *)
    Op.check_older_txn ~previous:prev_op Op.Delete;
    let t = push_back ext existing in
    Some (set_slot1 ~in_place:own ext t ~vn ~op:Op.Delete ~pre:`From_current)
  end
  else begin
    (* Table 4, row 2. *)
    match Op.combine_same_txn ~previous:prev_op Op.Delete with
    | `Physically_delete when not insert_over_delete -> None
    | `Physically_delete ->
      (* Correction to Table 4 row 2: the same-transaction insert landed on
         a logically deleted key (Table 2 row 1), so the record still
         carries history older readers may need — physically deleting it
         would lose that.  Restore the deleted state instead: shift the
         pushed-back slots forward under nVNL; under plain 2VNL re-stamp
         the tuple as deleted at vn - 1 (invisible to every non-expired
         session, exactly like the committed delete it stands for). *)
      if Schema_ext.slots ext >= 2 && Schema_ext.tuple_vn ext ~slot:2 existing <> None then
        Some (shift_forward ext existing)
      else
        Some
          (Tuple.set_many existing
             [
               (Schema_ext.tuple_vn_index ext ~slot:1, Value.Int (vn - 1));
               (Schema_ext.operation_index ext ~slot:1, Op.to_value Op.Delete);
             ])
    | `Becomes net -> Some (set_slot1 ext existing ~vn ~op:net ~pre:`Keep)
  end

(* ------------------------------------------------------------------ *)
(* Row-1 transitions on record bytes.                                 *)
(*                                                                    *)
(* The refresh writes each changed record once, on its page bytes,    *)
(* inside a page run: it reads slot 1's cells and the base cells in   *)
(* place and writes only the cells a transition changes.  Within one  *)
(* refresh every stored tupleVN is below the writing VN (a round      *)
(* touches each key once), so only row 1 of Tables 2-4 occurs; a      *)
(* record already stamped at the VN is rejected rather than handled.  *)
(* Each function validates every value before its first byte lands,   *)
(* and writes exactly the cells [Tuple.encode_into] of the tuple      *)
(* transition's result would change.                                  *)
(* ------------------------------------------------------------------ *)

let cell ext p img off =
  let s = Schema_ext.extended ext in
  Value.decode (Schema.dtypes s).(p) img (off + (Schema.cell_offsets s).(p))

let write_cell ext p v img off =
  let s = Schema_ext.extended ext in
  Value.write_cell (Schema.dtypes s).(p) v img (off + (Schema.cell_offsets s).(p))

let copy_cell ext ~src ~dst img off =
  let s = Schema_ext.extended ext in
  let offs = Schema.cell_offsets s in
  Bytes.blit img (off + offs.(src)) img (off + offs.(dst))
    (Vnl_relation.Dtype.width (Schema.dtypes s).(src))

(* Slot 1's operation, once its version number is checked below [vn]. *)
let stored_op ext ~vn img off =
  (match cell ext (Schema_ext.tuple_vn_index ext ~slot:1) img off with
  | Value.Int tvn when tvn < vn -> ()
  | Value.Int _ -> invalid_arg "Maintenance: record already written at this VN"
  | _ -> invalid_arg "Maintenance: tuple without slot 1");
  Op.of_value (cell ext (Schema_ext.operation_index ext ~slot:1) img off)

let current_cells ext ~vn img off =
  match stored_op ext ~vn img off with
  | Op.Delete -> None
  | Op.Insert | Op.Update -> Some (fun j -> cell ext (Schema_ext.base_index ext j) img off)

let push_back_record ext img off =
  for slot = Schema_ext.slots ext - 1 downto 1 do
    let move src dst = copy_cell ext ~src ~dst img off in
    move (Schema_ext.tuple_vn_index ext ~slot) (Schema_ext.tuple_vn_index ext ~slot:(slot + 1));
    move (Schema_ext.operation_index ext ~slot) (Schema_ext.operation_index ext ~slot:(slot + 1));
    let dst_pre = Schema_ext.pre_indices ext ~slot:(slot + 1) in
    Array.iteri (fun r src -> move src dst_pre.(r)) (Schema_ext.pre_indices ext ~slot)
  done

(* Slot 1 after a push-back: the pre-update copies, then the base
   assignments (reversed, so the first of duplicate positions wins, as in
   [set_slot1]), then the stamp. *)
let write_slot1 ext img off ~vn ~op ~pre ~set =
  let pre1 = Schema_ext.pre_indices ext ~slot:1 in
  (match pre with
  | `Nulls -> Array.iter (fun p -> write_cell ext p Value.Null img off) pre1
  | `From_current ->
    let upd = Schema_ext.updatable_array ext in
    Array.iteri
      (fun r p -> copy_cell ext ~src:(Schema_ext.base_index ext upd.(r)) ~dst:p img off)
      pre1);
  List.iter (fun (j, v) -> write_cell ext (Schema_ext.base_index ext j) v img off) (List.rev set);
  write_cell ext (Schema_ext.tuple_vn_index ext ~slot:1) (Value.Int vn) img off;
  write_cell ext (Schema_ext.operation_index ext ~slot:1) (Op.to_value op) img off

let check_cells ext set =
  List.iter
    (fun (j, v) -> Tuple.check_value (Schema_ext.extended ext) (Schema_ext.base_index ext j) v)
    set

let insert_record ?(on_over_delete = fun () -> ()) ext ~vn img off base_tuple =
  (* Table 2, row 1: only a logically deleted record can collide. *)
  Op.check_older_txn ~previous:(stored_op ext ~vn img off) Op.Insert;
  let set = List.mapi (fun j v -> (j, v)) (Tuple.values base_tuple) in
  check_cells ext set;
  on_over_delete ();
  push_back_record ext img off;
  write_slot1 ext img off ~vn ~op:Op.Insert ~pre:`Nulls ~set

let update_record ext ~vn img off assignments =
  (* Table 3, row 1. *)
  check_updatable ext assignments;
  Op.check_older_txn ~previous:(stored_op ext ~vn img off) Op.Update;
  check_cells ext assignments;
  push_back_record ext img off;
  write_slot1 ext img off ~vn ~op:Op.Update ~pre:`From_current ~set:assignments

let delete_record ext ~vn img off =
  (* Table 4, row 1: a logical delete is a physical update. *)
  Op.check_older_txn ~previous:(stored_op ext ~vn img off) Op.Delete;
  push_back_record ext img off;
  write_slot1 ext img off ~vn ~op:Op.Delete ~pre:`From_current ~set:[]

(* ------------------------------------------------------------------ *)
(* Per-operation appliers: one table probe and one physical action    *)
(* per logical operation.                                             *)
(* ------------------------------------------------------------------ *)

let apply_insert ?stats ?on_over_delete ext table ~vn base_tuple =
  count (fun s -> s.logical_inserts <- s.logical_inserts + 1) stats;
  let conflict =
    if Vnl_query.Table.has_key table then
      Table.find_by_key table (Tuple.key_of (Schema_ext.base ext) base_tuple)
    else None
  in
  match conflict with
  | None ->
    count (fun s -> s.physical_inserts <- s.physical_inserts + 1) stats;
    Table.insert ~check:false table (insert_tuple ext ~vn None base_tuple)
  | Some (rid, existing) ->
    let on_over_delete =
      match on_over_delete with Some f -> Some (fun () -> f rid) | None -> None
    in
    let t = insert_tuple ?on_over_delete ext ~vn (Some existing) base_tuple in
    count (fun s -> s.physical_updates <- s.physical_updates + 1) stats;
    Table.update_in_place ~old:existing table rid t;
    rid

let apply_update ?stats ext table ~vn rid assignments =
  count (fun s -> s.logical_updates <- s.logical_updates + 1) stats;
  check_updatable ext assignments;
  match Table.get table rid with
  | None -> invalid_arg "Maintenance.apply_update: no tuple at rid"
  | Some existing ->
    let t = update_tuple ext ~vn existing assignments in
    count (fun s -> s.physical_updates <- s.physical_updates + 1) stats;
    Table.update_in_place ~old:existing table rid t

let apply_delete ?stats ?(was_insert_over_delete = fun _ -> false) ext table ~vn rid =
  count (fun s -> s.logical_deletes <- s.logical_deletes + 1) stats;
  match Table.get table rid with
  | None -> invalid_arg "Maintenance.apply_delete: no tuple at rid"
  | Some existing -> (
    match
      delete_tuple ~insert_over_delete:(was_insert_over_delete rid) ext ~vn existing
    with
    | None ->
      count (fun s -> s.physical_deletes <- s.physical_deletes + 1) stats;
      Table.delete ~old:existing table rid
    | Some t ->
      count (fun s -> s.physical_updates <- s.physical_updates + 1) stats;
      Table.update_in_place ~old:existing table rid t)
