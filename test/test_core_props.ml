(* Structural property tests for the schema extension and slot mechanics:
   the index maps must tile the extended tuple exactly, and the byte
   helpers' shift_forward must invert push_back whenever the last slot is
   free. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Schema_ext = Vnl_core.Schema_ext
module Maintenance = Vnl_core.Maintenance
module Op = Vnl_core.Op
module Xorshift = Vnl_util.Xorshift

(* Random base schema: one key int + a mix of updatable/plain ints. *)
let gen_base rng =
  let extra = 1 + Xorshift.int rng 5 in
  Schema.make
    (Schema.attr ~key:true "k" Dtype.Int
    :: List.init extra (fun i ->
           Schema.attr ~updatable:(Xorshift.bool rng) (Printf.sprintf "a%d" i) Dtype.Int))

let qcheck_layout_tiles =
  QCheck.Test.make ~name:"extended-schema index maps tile the tuple exactly" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 1_000_000) (int_range 2 6))
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n))
    (fun (seed, n) ->
      let rng = Xorshift.create seed in
      let base = gen_base rng in
      let ext = Schema_ext.extend ~n base in
      let arity = Schema.arity (Schema_ext.extended ext) in
      let hit = Array.make arity 0 in
      for slot = 1 to Schema_ext.slots ext do
        hit.(Schema_ext.tuple_vn_index ext ~slot) <- hit.(Schema_ext.tuple_vn_index ext ~slot) + 1;
        hit.(Schema_ext.operation_index ext ~slot) <-
          hit.(Schema_ext.operation_index ext ~slot) + 1;
        List.iter
          (fun j ->
            hit.(Schema_ext.pre_index ext ~slot j) <- hit.(Schema_ext.pre_index ext ~slot j) + 1)
          (Schema_ext.updatable_base_indices ext)
      done;
      for j = 0 to Schema_ext.base_arity ext - 1 do
        hit.(Schema_ext.base_index ext j) <- hit.(Schema_ext.base_index ext j) + 1
      done;
      Array.for_all (fun c -> c = 1) hit)

let qcheck_names_resolve =
  QCheck.Test.make ~name:"slot attribute names resolve to their indices" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_range 1 1_000_000) (int_range 2 5))
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n))
    (fun (seed, n) ->
      let rng = Xorshift.create seed in
      let base = gen_base rng in
      let ext = Schema_ext.extend ~n base in
      let schema = Schema_ext.extended ext in
      let ok = ref true in
      for slot = 1 to Schema_ext.slots ext do
        if
          Schema.index_of schema (Schema_ext.tuple_vn_name ext ~slot)
          <> Schema_ext.tuple_vn_index ext ~slot
        then ok := false;
        if
          Schema.index_of schema (Schema_ext.operation_name ext ~slot)
          <> Schema_ext.operation_index ext ~slot
        then ok := false;
        List.iter
          (fun j ->
            let a = Schema.attribute base j in
            if
              Schema.index_of schema (Schema_ext.pre_name ext ~slot a.Schema.name)
              <> Schema_ext.pre_index ext ~slot j
            then ok := false)
          (Schema_ext.updatable_base_indices ext)
      done;
      !ok)

(* Build a random extended tuple with the first [occupied] slots filled. *)
let gen_ext_tuple rng ext ~occupied =
  let schema = Schema_ext.extended ext in
  let values = Array.make (Schema.arity schema) Value.Null in
  for j = 0 to Schema_ext.base_arity ext - 1 do
    values.(Schema_ext.base_index ext j) <- Value.Int (Xorshift.int rng 1000)
  done;
  let vn = ref (occupied * 3) in
  for slot = 1 to occupied do
    values.(Schema_ext.tuple_vn_index ext ~slot) <- Value.Int !vn;
    vn := !vn - 3;
    values.(Schema_ext.operation_index ext ~slot) <-
      Op.to_value (Xorshift.pick rng [| Op.Insert; Op.Update; Op.Delete |]);
    List.iter
      (fun j ->
        values.(Schema_ext.pre_index ext ~slot j) <- Value.Int (Xorshift.int rng 1000))
      (Schema_ext.updatable_base_indices ext)
  done;
  Tuple.of_array schema values

(* Run a byte helper on the tuple's record, encoded at an offset inside a
   larger buffer, and decode the result; the bytes around the record must
   not change. *)
let on_record f ext t =
  let s = Schema_ext.extended ext in
  let off = 7 in
  let img = Bytes.make (Schema.width s + 2 * off) '\x5a' in
  Tuple.encode_into s t img off;
  f ext img off;
  let guard = Bytes.make off '\x5a' in
  if
    not
      (Bytes.equal (Bytes.sub img 0 off) guard
      && Bytes.equal (Bytes.sub img (off + Schema.width s) off) guard)
  then failwith "byte helper wrote outside its record";
  Tuple.decode_from s img off

let push_back = on_record Maintenance.push_back_record

let shift_forward = on_record Maintenance.shift_forward_record

let qcheck_shift_forward_inverts_push_back =
  QCheck.Test.make ~name:"shift_forward inverts push_back (free last slot)" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 1_000_000) (int_range 3 6))
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n))
    (fun (seed, n) ->
      let rng = Xorshift.create seed in
      let base = gen_base rng in
      let ext = Schema_ext.extend ~n base in
      (* Leave the last slot unused so push_back is lossless. *)
      let occupied = 1 + Xorshift.int rng (Schema_ext.slots ext - 1) in
      let t = gen_ext_tuple rng ext ~occupied in
      let roundtrip = shift_forward ext (push_back ext t) in
      (* push_back leaves slot 1 for the caller to overwrite; after
         shift_forward it is restored from the copy in slot 2, so the whole
         tuple must be back. *)
      Tuple.equal t roundtrip)

let qcheck_push_back_preserves_history =
  QCheck.Test.make ~name:"push_back shifts every slot down by one" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 1_000_000) (int_range 2 6))
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n))
    (fun (seed, n) ->
      let rng = Xorshift.create seed in
      let base = gen_base rng in
      let ext = Schema_ext.extend ~n base in
      let occupied = 1 + Xorshift.int rng (Schema_ext.slots ext) in
      let t = gen_ext_tuple rng ext ~occupied in
      let pushed = push_back ext t in
      let ok = ref true in
      for slot = 1 to Schema_ext.slots ext - 1 do
        if Schema_ext.tuple_vn ext ~slot:(slot + 1) pushed <> Schema_ext.tuple_vn ext ~slot t
        then ok := false;
        List.iter
          (fun j ->
            if
              not
                (Value.equal
                   (Tuple.get pushed (Schema_ext.pre_index ext ~slot:(slot + 1) j))
                   (Tuple.get t (Schema_ext.pre_index ext ~slot j)))
            then ok := false)
          (Schema_ext.updatable_base_indices ext)
      done;
      (* Base attributes are untouched by push_back. *)
      for j = 0 to Schema_ext.base_arity ext - 1 do
        if
          not
            (Value.equal
               (Tuple.get pushed (Schema_ext.base_index ext j))
               (Tuple.get t (Schema_ext.base_index ext j)))
        then ok := false
      done;
      !ok)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_layout_tiles;
    QCheck_alcotest.to_alcotest qcheck_names_resolve;
    QCheck_alcotest.to_alcotest qcheck_shift_forward_inverts_push_back;
    QCheck_alcotest.to_alcotest qcheck_push_back_preserves_history;
  ]
