module Table = Vnl_query.Table

(* Revert one touched record on its page bytes.  No-op if the record's
   slot-1 version is not [vn] (it was not actually modified by this
   transaction). *)
let revert_tuple ext table ~vn ~was_insert_over_delete rid =
  let remove = ref false in
  Table.rewrite_many table [| rid |] (fun _ img off ->
      match Maintenance.record_stamp ext img off with
      | Some (tvn, op1) when tvn = vn ->
        let fresh_insert = op1 = Op.Insert && not was_insert_over_delete in
        if fresh_insert then remove := true
        else if Schema_ext.slots ext >= 2 then begin
          (* nVNL: restore the pushed-back history exactly.  Current values
             come back from this transaction's slot-1 pre-update copies
             (an insert-over-delete keeps its current values: its restored
             slot-1 operation is delete). *)
          (match op1 with
          | Op.Update | Op.Delete -> Maintenance.restore_current ext img off
          | Op.Insert -> ());
          Maintenance.shift_forward_record ext img off
        end
        else begin
          (* Plain 2VNL: no second slot to restore from.  Stamp the record
             as a vn-1 modification whose current content is the pre-update
             state; every session that is still valid while this
             transaction runs (necessarily sessionVN = vn - 1) reads it
             correctly. *)
          match op1 with
          | Op.Insert ->
            (* Insert over a deleted key: re-mark deleted. *)
            Maintenance.restamp ext ~vn:(vn - 1) Op.Delete img off
          | Op.Update | Op.Delete ->
            Maintenance.restore_current ext img off;
            Maintenance.restamp ext ~vn:(vn - 1) Op.Update img off
        end
      | Some _ | None -> ());
  if !remove then Table.delete table rid

(* The one repair, for a transaction of one outstanding VN or of several
   alike: a pipelined round's partitions are key-disjoint, so a tuple
   carries at most one unpublished VN in slot 1 and each touched tuple
   reverts independently at its own stamp. *)
let revert_above ext table ~current ~over_deleted =
  (* Slot 1's stamp is read in place; nothing is decoded. *)
  let touched =
    Table.fold_raw table ~init:[] ~f:(fun acc ~page ~slot img off ->
        match Maintenance.record_stamp ext img off with
        | Some (tvn, _) when tvn > current -> ({ Vnl_storage.Heap_file.page; slot }, tvn) :: acc
        | Some _ | None -> acc)
  in
  List.iter
    (fun (rid, tvn) ->
      revert_tuple ext table ~vn:tvn ~was_insert_over_delete:(over_deleted rid) rid)
    touched;
  List.length touched
