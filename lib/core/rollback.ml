module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Table = Vnl_query.Table

(* Revert one touched tuple.  No-op if the tuple's slot-1 version is not
   [vn] (it was not actually modified by this transaction). *)
let revert_tuple ext table ~vn ~was_insert_over_delete rid =
  match Table.get table rid with
  | None -> ()
  | Some tuple -> (
    match Schema_ext.tuple_vn ext ~slot:1 tuple with
    | Some tvn when tvn = vn -> (
      let updatable = Schema_ext.updatable_base_indices ext in
      let op1 = Schema_ext.operation ext ~slot:1 tuple in
      let fresh_insert = op1 = Op.Insert && not was_insert_over_delete in
      if fresh_insert then Table.delete table rid
      else if Schema_ext.slots ext >= 2 then begin
        (* nVNL: restore the pushed-back history exactly.  Current values
           come back from this transaction's slot-1 pre-update copies
           (meaningless but harmless for an insert-over-delete, whose
           restored slot-1 operation is delete). *)
        let restore_current =
          match op1 with
          | Op.Update | Op.Delete ->
            List.map
              (fun j ->
                ( Schema_ext.base_index ext j,
                  Tuple.get tuple (Schema_ext.pre_index ext ~slot:1 j) ))
              updatable
          | Op.Insert -> []
        in
        let t = Tuple.set_many tuple restore_current in
        Table.update_in_place table rid (Maintenance.shift_forward ext t)
      end
      else begin
        (* Plain 2VNL: no second slot to restore from.  Stamp the tuple as a
           vn-1 modification whose current content is the pre-update state;
           every session that is still valid while this transaction runs
           (necessarily sessionVN = vn - 1) reads it correctly. *)
        match op1 with
        | Op.Insert ->
          (* Insert over a deleted key: re-mark deleted. *)
          Table.update_in_place table rid
            (Tuple.set_many tuple
               [
                 (Schema_ext.tuple_vn_index ext ~slot:1, Value.Int (vn - 1));
                 (Schema_ext.operation_index ext ~slot:1, Op.to_value Op.Delete);
               ])
        | Op.Update | Op.Delete ->
          let restore_current =
            List.map
              (fun j ->
                ( Schema_ext.base_index ext j,
                  Tuple.get tuple (Schema_ext.pre_index ext ~slot:1 j) ))
              updatable
          in
          Table.update_in_place table rid
            (Tuple.set_many tuple
               ((Schema_ext.tuple_vn_index ext ~slot:1, Value.Int (vn - 1))
               :: (Schema_ext.operation_index ext ~slot:1, Op.to_value Op.Update)
               :: restore_current))
      end)
    | Some _ | None -> ())

(* The one repair, for a transaction of one outstanding VN or of several
   alike: a pipelined round's partitions are key-disjoint, so a tuple
   carries at most one unpublished VN in slot 1 and each touched tuple
   reverts independently at its own stamp. *)
let revert_above ext table ~current ~over_deleted =
  let touched = ref [] in
  Table.scan table (fun rid tuple ->
      match Schema_ext.tuple_vn ext ~slot:1 tuple with
      | Some tvn when tvn > current -> touched := (rid, tvn) :: !touched
      | Some _ | None -> ());
  List.iter
    (fun (rid, tvn) ->
      revert_tuple ext table ~vn:tvn ~was_insert_over_delete:(over_deleted rid) rid)
    !touched;
  List.length !touched
