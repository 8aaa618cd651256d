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

let add_stats ~into s =
  into.logical_inserts <- into.logical_inserts + s.logical_inserts;
  into.logical_updates <- into.logical_updates + s.logical_updates;
  into.logical_deletes <- into.logical_deletes + s.logical_deletes;
  into.physical_inserts <- into.physical_inserts + s.physical_inserts;
  into.physical_updates <- into.physical_updates + s.physical_updates;
  into.physical_deletes <- into.physical_deletes + s.physical_deletes

let count f = function Some s -> f s | None -> ()

let check_update ext assignments =
  let s = Schema_ext.extended ext in
  List.iter
    (fun (j, v) ->
      if not (Schema_ext.is_updatable ext j) then
        invalid_arg (Printf.sprintf "Maintenance: base attribute %d is not updatable" j);
      Tuple.check_value s (Schema_ext.base_index ext j) v)
    assignments

let check_insert ext base_tuple =
  if Tuple.arity base_tuple <> Schema_ext.base_arity ext then
    invalid_arg "Maintenance: base tuple arity mismatch";
  let s = Schema_ext.extended ext in
  for j = 0 to Tuple.arity base_tuple - 1 do
    Tuple.check_value s (Schema_ext.base_index ext j) (Tuple.get base_tuple j)
  done

let is_logically_live ext tuple =
  match Schema_ext.operation ext ~slot:1 tuple with
  | Op.Delete -> false
  | Op.Insert | Op.Update -> true

(* ------------------------------------------------------------------ *)
(* Tables 2-4 on record bytes.                                        *)
(*                                                                    *)
(* Every transition reads slot 1's cells and the base cells in place   *)
(* and writes only the cells it changes, on the page slot that holds   *)
(* the record, inside a page run or an insert run.  Each validates     *)
(* every value before its first byte lands.                            *)
(* ------------------------------------------------------------------ *)

(* The extended record's cell types and byte offsets, looked up once per
   transition.  Slot 1's stamp is read and written raw, as the reader's
   fast path reads it (Schema_ext.visibility): the tupleVN cell is an
   int32 whose NULL is [Int32.min_int], the operation cell one byte, its
   {!Op.code}. *)
type layout = {
  dts : Vnl_relation.Dtype.t array;
  offs : int array;
  vn1 : int;  (** Byte offset of slot 1's tupleVN cell. *)
  op1 : int;  (** Byte offset of slot 1's operation cell. *)
}

let layout ext =
  let s = Schema_ext.extended ext in
  let offs = Schema.cell_offsets s in
  {
    dts = Schema.dtypes s;
    offs;
    vn1 = offs.(Schema_ext.tuple_vn_index ext ~slot:1);
    op1 = offs.(Schema_ext.operation_index ext ~slot:1);
  }

let cell l p img off = Value.decode l.dts.(p) img (off + l.offs.(p))

let write_cell l p v img off = Value.write_cell l.dts.(p) v img (off + l.offs.(p))

let copy_cell l ~src ~dst img off =
  Bytes.blit img (off + l.offs.(src)) img (off + l.offs.(dst))
    (Vnl_relation.Dtype.width l.dts.(src))

let record_stamp ext img off =
  let l = layout ext in
  let n = Bytes.get_int32_le img (off + l.vn1) in
  if Int32.equal n Int32.min_int then None
  else Some (Int32.to_int n, Op.of_code (Bytes.get img (off + l.op1)))

(* Whether this transaction wrote the record: a stamp at [vn] selects row
   2 of Tables 2-4, one below it row 1. *)
let same_txn l ~vn img off =
  let n = Bytes.get_int32_le img (off + l.vn1) in
  if Int32.equal n Int32.min_int then invalid_arg "Maintenance: tuple without slot 1";
  let tvn = Int32.to_int n in
  if tvn > vn then invalid_arg "Maintenance: record stamped above this VN";
  tvn = vn

let stored_op l img off = Op.of_code (Bytes.get img (off + l.op1))

let write_stamp l ~vn op img off =
  Bytes.set_int32_le img (off + l.vn1) (Int32.of_int vn);
  Bytes.set img (off + l.op1) (Op.code op)

let restamp ext ~vn op img off = write_stamp (layout ext) ~vn op img off

let current_cells ~row2 ext ~vn img off =
  let l = layout ext in
  if same_txn l ~vn img off && not row2 then
    invalid_arg "Maintenance: record already written at this VN";
  match stored_op l img off with
  | Op.Delete -> None
  | Op.Insert | Op.Update -> Some (fun j -> cell l (Schema_ext.base_index ext j) img off)

(* Copy slot [src]'s stamp and pre-update cells over slot [dst]'s. *)
let copy_slot l ext img off ~src ~dst =
  let move a b = copy_cell l ~src:a ~dst:b img off in
  move (Schema_ext.tuple_vn_index ext ~slot:src) (Schema_ext.tuple_vn_index ext ~slot:dst);
  move (Schema_ext.operation_index ext ~slot:src) (Schema_ext.operation_index ext ~slot:dst);
  let dst_pre = Schema_ext.pre_indices ext ~slot:dst in
  Array.iteri (fun r p -> move p dst_pre.(r)) (Schema_ext.pre_indices ext ~slot:src)

(* Move slot i into slot i+1, oldest first so nothing is clobbered; slot 1
   is left for the caller to fill. *)
let push_back l ext img off =
  for slot = Schema_ext.slots ext - 1 downto 1 do
    copy_slot l ext img off ~src:slot ~dst:(slot + 1)
  done

let push_back_record ext img off = push_back (layout ext) ext img off

let shift_forward_record ext img off =
  let l = layout ext and nslots = Schema_ext.slots ext in
  for slot = 1 to nslots - 1 do
    copy_slot l ext img off ~src:(slot + 1) ~dst:slot
  done;
  let null p = write_cell l p Value.Null img off in
  null (Schema_ext.tuple_vn_index ext ~slot:nslots);
  null (Schema_ext.operation_index ext ~slot:nslots);
  Array.iter null (Schema_ext.pre_indices ext ~slot:nslots)

let restore_current ext img off =
  let l = layout ext and upd = Schema_ext.updatable_array ext in
  Array.iteri
    (fun r p -> copy_cell l ~src:p ~dst:(Schema_ext.base_index ext upd.(r)) img off)
    (Schema_ext.pre_indices ext ~slot:1)

(* Slot 1 for the transition: the pre-update copies, then the base
   assignments (reversed, so the first of duplicate positions wins), then
   the stamp. *)
let write_slot1 l ext img off ~vn ~op ~pre ~set =
  (match pre with
  | `Keep -> ()
  | `Nulls ->
    Array.iter (fun p -> write_cell l p Value.Null img off) (Schema_ext.pre_indices ext ~slot:1)
  | `From_current ->
    let upd = Schema_ext.updatable_array ext in
    Array.iteri
      (fun r p -> copy_cell l ~src:(Schema_ext.base_index ext upd.(r)) ~dst:p img off)
      (Schema_ext.pre_indices ext ~slot:1));
  List.iter (fun (j, v) -> write_cell l (Schema_ext.base_index ext j) v img off) (List.rev set);
  write_stamp l ~vn op img off

(* Row 2: the net effect of this transaction's operations on the record. *)
let net ~previous op =
  match Op.combine_same_txn ~previous op with
  | `Becomes net -> net
  | `Physically_delete -> assert false (* only a delete physically deletes *)

let insert_record ?(on_over_delete = fun () -> ()) ext ~vn img off base_tuple =
  let l = layout ext in
  let same = same_txn l ~vn img off in
  let previous = stored_op l img off in
  (* Table 2, row 1: only a logically deleted record can collide. *)
  if not same then Op.check_older_txn ~previous Op.Insert;
  check_insert ext base_tuple;
  let set = List.mapi (fun j v -> (j, v)) (Tuple.values base_tuple) in
  if same then
    (* Table 2, row 2. *)
    write_slot1 l ext img off ~vn ~op:(net ~previous Op.Insert) ~pre:`Keep ~set
  else begin
    on_over_delete ();
    push_back l ext img off;
    write_slot1 l ext img off ~vn ~op:Op.Insert ~pre:`Nulls ~set
  end

let update_record ext ~vn img off assignments =
  check_update ext assignments;
  let l = layout ext in
  let same = same_txn l ~vn img off in
  let previous = stored_op l img off in
  if same then
    (* Table 3, row 2: the net effect keeps the existing operation. *)
    write_slot1 l ext img off ~vn ~op:(net ~previous Op.Update) ~pre:`Keep ~set:assignments
  else begin
    (* Table 3, row 1. *)
    Op.check_older_txn ~previous Op.Update;
    push_back l ext img off;
    write_slot1 l ext img off ~vn ~op:Op.Update ~pre:`From_current ~set:assignments
  end

let delete_record ?(insert_over_delete = false) ext ~vn img off =
  let l = layout ext in
  let same = same_txn l ~vn img off in
  let previous = stored_op l img off in
  if not same then begin
    (* Table 4, row 1: a logical delete is a physical update preserving
       the pre-update version. *)
    Op.check_older_txn ~previous Op.Delete;
    push_back l ext img off;
    write_slot1 l ext img off ~vn ~op:Op.Delete ~pre:`From_current ~set:[];
    false
  end
  else
    (* Table 4, row 2. *)
    match Op.combine_same_txn ~previous Op.Delete with
    | `Becomes op ->
      write_slot1 l ext img off ~vn ~op ~pre:`Keep ~set:[];
      false
    | `Physically_delete when not insert_over_delete -> true
    | `Physically_delete ->
      (* Correction to Table 4 row 2: the same-transaction insert landed on
         a logically deleted key (Table 2 row 1), so the record still
         carries history older readers may need — physically deleting it
         would lose that.  Restore the deleted state instead: shift the
         pushed-back slots forward under nVNL; under plain 2VNL re-stamp
         the record as deleted at vn - 1 (invisible to every non-expired
         session, exactly like the committed delete it stands for). *)
      if
        Schema_ext.slots ext >= 2
        && cell l (Schema_ext.tuple_vn_index ext ~slot:2) img off <> Value.Null
      then shift_forward_record ext img off
      else write_stamp l ~vn:(vn - 1) Op.Delete img off;
      false

(* ------------------------------------------------------------------ *)
(* Per-operation appliers: one key probe and a one-record page run per *)
(* logical operation.                                                  *)
(* ------------------------------------------------------------------ *)

let rewrite table rid f = Table.rewrite_many table [| rid |] (fun _ img off -> f img off)

let apply_insert ?stats ?on_over_delete ext table ~vn base_tuple =
  count (fun s -> s.logical_inserts <- s.logical_inserts + 1) stats;
  let key = Tuple.key_of (Schema_ext.base ext) base_tuple in
  match Table.probe table ~hash:(Vnl_index.Hash_index.Key.hash key) key with
  | None ->
    (* Table 2, row 3: no conflicting record. *)
    count (fun s -> s.physical_inserts <- s.physical_inserts + 1) stats;
    Table.insert ~check:false table (Schema_ext.fresh_insert ext ~vn base_tuple)
  | Some rid ->
    let on_over_delete = Option.map (fun f () -> f rid) on_over_delete in
    rewrite table rid (fun img off -> insert_record ?on_over_delete ext ~vn img off base_tuple);
    count (fun s -> s.physical_updates <- s.physical_updates + 1) stats;
    rid

let apply_update ?stats ext table ~vn rid assignments =
  count (fun s -> s.logical_updates <- s.logical_updates + 1) stats;
  rewrite table rid (fun img off -> update_record ext ~vn img off assignments);
  count (fun s -> s.physical_updates <- s.physical_updates + 1) stats

let apply_delete ?stats ?(was_insert_over_delete = fun _ -> false) ext table ~vn rid =
  count (fun s -> s.logical_deletes <- s.logical_deletes + 1) stats;
  let insert_over_delete = was_insert_over_delete rid and remove = ref false in
  rewrite table rid (fun img off -> remove := delete_record ~insert_over_delete ext ~vn img off);
  if !remove then begin
    count (fun s -> s.physical_deletes <- s.physical_deletes + 1) stats;
    Table.delete table rid
  end
  else count (fun s -> s.physical_updates <- s.physical_updates + 1) stats
