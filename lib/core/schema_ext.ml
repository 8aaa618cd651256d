module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Dtype = Vnl_relation.Dtype

type t = {
  base : Schema.t;
  extended : Schema.t;
  n : int;
  updatable : int list;  (** Base positions of updatable attributes. *)
  rank : (int, int) Hashtbl.t;  (** Base position -> rank among updatables. *)
  rank_arr : int array;  (** Same mapping as [rank], -1 for non-updatable;
                             O(1) access for the per-tuple reader path. *)
  updatable_arr : int array;  (** [updatable] as an array, rank order. *)
  pre_idx : int array array;  (** [pre_idx.(slot - 1).(r)]: extended position
                                  of the slot's pre-update copy of the rank-r
                                  updatable attribute.  Precomputed so the
                                  maintenance hot path (push_back /
                                  shift_forward / slot-1 writes) never does a
                                  Hashtbl rank lookup per attribute. *)
}

let vn_name slot = if slot = 1 then "tupleVN" else Printf.sprintf "tupleVN%d" slot

let op_name slot = if slot = 1 then "operation" else Printf.sprintf "operation%d" slot

let pre_name_raw slot name =
  if slot = 1 then "pre_" ^ name else Printf.sprintf "pre%d_%s" slot name

let extend ?(n = 2) base =
  if n < 2 then invalid_arg "Schema_ext.extend: n must be >= 2";
  let base_attrs = Schema.attributes base in
  List.iter
    (fun a ->
      let name = a.Schema.name in
      if
        String.equal name "tupleVN" || String.equal name "operation"
        || (String.length name >= 4 && String.equal (String.sub name 0 4) "pre_")
      then invalid_arg (Printf.sprintf "Schema_ext.extend: reserved attribute name %S" name))
    base_attrs;
  let updatable_attrs = List.filter (fun a -> a.Schema.updatable) base_attrs in
  let slot_bookkeeping slot =
    [ Schema.attr (vn_name slot) Dtype.Int; Schema.attr (op_name slot) (Dtype.Str 1) ]
  in
  let slot_pres slot =
    List.map (fun a -> Schema.attr (pre_name_raw slot a.Schema.name) a.Schema.dtype) updatable_attrs
  in
  let later_slots =
    List.concat_map
      (fun slot -> slot_bookkeeping slot @ slot_pres slot)
      (List.init (n - 2) (fun i -> i + 2))
  in
  let extended =
    Schema.make (slot_bookkeeping 1 @ base_attrs @ slot_pres 1 @ later_slots)
  in
  let updatable = Schema.updatable_indices base in
  let rank = Hashtbl.create 8 in
  List.iteri (fun r j -> Hashtbl.add rank j r) updatable;
  let rank_arr = Array.make (Schema.arity base) (-1) in
  List.iteri (fun r j -> rank_arr.(j) <- r) updatable;
  let updatable_arr = Array.of_list updatable in
  let b = Schema.arity base and k = List.length updatable in
  let pre_idx =
    Array.init (n - 1) (fun s ->
        (* s = slot - 1; slot 1's pre columns follow the base attributes,
           later slots sit after their two bookkeeping columns. *)
        let start = if s = 0 then 2 + b else 2 + b + k + ((s - 1) * (2 + k)) + 2 in
        Array.init k (fun r -> start + r))
  in
  { base; extended; n; updatable; rank; rank_arr; updatable_arr; pre_idx }

let base t = t.base

let extended t = t.extended

let n t = t.n

let slots t = t.n - 1

let base_arity t = Schema.arity t.base

let updatable_count t = Array.length t.updatable_arr

let check_slot t slot =
  if slot < 1 || slot > t.n - 1 then
    invalid_arg (Printf.sprintf "Schema_ext: slot %d out of range 1..%d" slot (t.n - 1))

let slot_start t slot =
  (* Slot 1 bookkeeping sits at 0; later slots are appended after the base
     attributes and slot 1's pre-update copies. *)
  if slot = 1 then 0
  else begin
    check_slot t slot;
    let b = base_arity t and k = updatable_count t in
    2 + b + k + ((slot - 2) * (2 + k))
  end

let tuple_vn_index t ~slot = slot_start t slot

let operation_index t ~slot = slot_start t slot + 1

let base_index t j =
  if j < 0 || j >= base_arity t then invalid_arg "Schema_ext.base_index: out of range";
  2 + j

let rank_of t j =
  match Hashtbl.find_opt t.rank j with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Schema_ext: base attribute %d is not updatable" j)

let pre_index t ~slot j =
  check_slot t slot;
  let r = rank_of t j in
  if slot = 1 then 2 + base_arity t + r else slot_start t slot + 2 + r

let updatable_base_indices t = t.updatable

let updatable_array t = t.updatable_arr

let is_updatable t j = j >= 0 && j < Array.length t.rank_arr && t.rank_arr.(j) >= 0

let pre_indices t ~slot =
  check_slot t slot;
  t.pre_idx.(slot - 1)

let tuple_vn t ~slot tuple =
  match Tuple.get tuple (tuple_vn_index t ~slot) with
  | Value.Int vn -> Some vn
  | Value.Null -> None
  | v -> invalid_arg (Printf.sprintf "Schema_ext.tuple_vn: corrupt value %s" (Value.to_string v))

let operation t ~slot tuple =
  match Tuple.get tuple (operation_index t ~slot) with
  | Value.Null -> invalid_arg "Schema_ext.operation: unused slot"
  | v -> Op.of_value v

let fresh_insert t ~vn base_tuple =
  let ext = t.extended in
  let values =
    Array.init (Schema.arity ext) (fun _ -> Value.Null)
  in
  values.(0) <- Value.Int vn;
  values.(1) <- Op.to_value Op.Insert;
  List.iteri (fun j v -> values.(base_index t j) <- v) (Tuple.values base_tuple);
  Tuple.of_array ext values

(* Validation-free projections for the reader hot path: the source tuple
   was decoded from a stored record, so its values already match the
   schema and re-checking them per extraction would only burn CPU. *)

let current_tuple t tuple =
  Tuple.unsafe_init (base_arity t) (fun j -> Tuple.get tuple (2 + j))

let pre_update_tuple t ~slot tuple =
  let pre0 = if slot = 1 then 2 + base_arity t else slot_start t slot + 2 in
  Tuple.unsafe_init (base_arity t) (fun j ->
      let r = t.rank_arr.(j) in
      if r >= 0 then Tuple.get tuple (pre0 + r) else Tuple.get tuple (2 + j))

type visibility = Visible | Invisible | Slow

let visibility t ~session_vn buf off =
  (* Raw-record fast path for the reader: slot 1's version number and
     operation sit at fixed byte offsets, read here without boxing either.
     Anything but a readable current version (older version, unused slot,
     corrupt cell) is [Slow]; the caller re-decodes fully and runs the
     exact classify/extract logic, which also owns every error message. *)
  let offs = Schema.cell_offsets t.extended in
  let tvn1 = Bytes.get_int32_le buf (off + Array.unsafe_get offs 0) in
  (* [Int32.min_int] is the Int cell's NULL sentinel. *)
  if Int32.equal tvn1 Int32.min_int || session_vn < Int32.to_int tvn1 then Slow
  else
    match Bytes.get buf (off + Array.unsafe_get offs 1) with
    | 'd' -> Invisible
    | 'i' | 'u' -> Visible
    | _ -> Slow

let decode_visible t strings buf off =
  (* Only the base attributes are read — no extended tuple, no pre-update
     copies. *)
  let offs = Schema.cell_offsets t.extended and dts = Schema.dtypes t.extended in
  let b = base_arity t in
  let values = Array.make b Value.Null in
  for j = 0 to b - 1 do
    Array.unsafe_set values j
      (Value.Intern.decode strings (Array.unsafe_get dts (2 + j)) buf
         (off + Array.unsafe_get offs (2 + j)))
  done;
  Tuple.unsafe_of_array values

type raw_collectability = Raw_collect | Raw_keep | Raw_unknown

let collectable_raw t ~min_session_vn buf off =
  (* GC's analogue of [decode_visible]: the collectability of the common
     record (live insert/update, or a delete with a readable slot-1 VN) is
     decided from two fixed-offset cells, skipping the full extended
     decode that used to dominate the collection scan. *)
  let offs = Schema.cell_offsets t.extended in
  match Bytes.get buf (off + Array.unsafe_get offs 1) with
  | 'i' | 'u' -> Raw_keep
  | 'd' -> begin
    match Value.decode Dtype.Int buf (off + Array.unsafe_get offs 0) with
    | Value.Int vn -> if min_session_vn >= vn then Raw_collect else Raw_keep
    | _ -> Raw_unknown
  end
  | _ -> Raw_unknown

(* ---------- schema evolution ---------- *)

let of_extended ~n ~base_arity extended_schema =
  (* Invert [extend]: the base attributes sit at extended positions
     [2, 2 + base_arity).  Re-extending and comparing catches any mismatch
     between the stored layout metadata and the actual table schema. *)
  if base_arity < 1 || Schema.arity extended_schema < 2 + base_arity then
    invalid_arg "Schema_ext.of_extended: base arity out of range";
  let base =
    Schema.make (List.init base_arity (fun j -> Schema.attribute extended_schema (2 + j)))
  in
  let t = extend ~n base in
  if not (Schema.equal t.extended extended_schema) then
    invalid_arg "Schema_ext.of_extended: layout metadata does not match the stored schema";
  t

type winstr = W_copy of int | W_const of Value.t

type widening = { w_from : t; w_to : t; instrs : winstr array }

let widening ~from_ ~to_ ~defaults =
  (* Per-target-position copy plan, matched BY NAME: base attributes and
     bookkeeping/pre columns share names across generations, an added
     column takes its declared default, and anything else (the added
     column's own pre-update copies) starts Null. *)
  let src = from_.extended in
  let instrs =
    Array.init (Schema.arity to_.extended) (fun j ->
        let a = Schema.attribute to_.extended j in
        match Schema.index_of_opt src a.Schema.name with
        | Some i -> W_copy i
        | None -> (
          match List.assoc_opt a.Schema.name defaults with
          | Some v -> W_const v
          | None -> W_const Value.Null))
  in
  { w_from = from_; w_to = to_; instrs }

let widen w tuple =
  Tuple.unsafe_init
    (Array.length w.instrs)
    (fun j ->
      match Array.unsafe_get w.instrs j with
      | W_copy i -> Tuple.get tuple i
      | W_const v -> v)

let decode_widened w buf off =
  (* Decode a pre-evolution raw record straight into the new generation's
     shape: copied cells read at the OLD offsets with the OLD dtypes,
     added cells materialize from the defaults.  This is the per-generation
     offsets/defaults decode the evolution tests byte-compare against
     old-generation decode. *)
  let offs = Schema.cell_offsets w.w_from.extended in
  let dts = Schema.dtypes w.w_from.extended in
  Tuple.unsafe_init
    (Array.length w.instrs)
    (fun j ->
      match Array.unsafe_get w.instrs j with
      | W_copy i -> Value.decode (Array.unsafe_get dts i) buf (off + Array.unsafe_get offs i)
      | W_const v -> v)

let width_overhead t = Schema.width t.extended - Schema.width t.base

let overhead_ratio t = float_of_int (width_overhead t) /. float_of_int (Schema.width t.base)

let is_extended_attribute t name =
  Schema.mem t.extended name && not (Schema.mem t.base name)

let tuple_vn_name t ~slot =
  check_slot t slot;
  vn_name slot

let operation_name t ~slot =
  check_slot t slot;
  op_name slot

let pre_name t ~slot name =
  check_slot t slot;
  (match Schema.index_of_opt t.base name with
  | Some j -> ignore (rank_of t j)
  | None -> invalid_arg (Printf.sprintf "Schema_ext.pre_name: unknown attribute %S" name));
  pre_name_raw slot name
