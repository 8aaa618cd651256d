(* Unit and property tests for Vnl_relation: values, schemas, tuples. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple

let check = Alcotest.check

(* The paper's DailySales relation (Example 2.1 / Figure 3). *)
let daily_sales =
  Schema.make
    [
      Schema.attr ~key:true "city" (Dtype.Str 20);
      Schema.attr ~key:true "state" (Dtype.Str 2);
      Schema.attr ~key:true "product_line" (Dtype.Str 12);
      Schema.attr ~key:true "date" Dtype.Date;
      Schema.attr ~updatable:true "total_sales" Dtype.Int;
    ]

let sample_tuple =
  Tuple.make daily_sales
    [
      Value.Str "San Jose";
      Value.Str "CA";
      Value.Str "golf equip";
      Value.date_of_mdy 10 14 96;
      Value.Int 10000;
    ]

let test_dtype_widths () =
  check Alcotest.int "int" 4 (Dtype.width Dtype.Int);
  check Alcotest.int "float" 8 (Dtype.width Dtype.Float);
  check Alcotest.int "str" 20 (Dtype.width (Dtype.Str 20));
  check Alcotest.int "date" 4 (Dtype.width Dtype.Date);
  check Alcotest.int "bool" 1 (Dtype.width Dtype.Bool)

let test_schema_width_matches_paper () =
  (* Figure 3: the unextended DailySales relation is 42 bytes per tuple. *)
  check Alcotest.int "42 bytes" 42 (Schema.width daily_sales)

let test_schema_flags () =
  check (Alcotest.list Alcotest.int) "key indices" [ 0; 1; 2; 3 ] (Schema.key_indices daily_sales);
  check (Alcotest.list Alcotest.int) "updatable" [ 4 ] (Schema.updatable_indices daily_sales);
  Alcotest.(check bool) "has key" true (Schema.has_unique_key daily_sales)

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "duplicate name" (Invalid_argument "Schema.make: duplicate attribute \"a\"")
    (fun () -> ignore (Schema.make [ Schema.attr "a" Dtype.Int; Schema.attr "a" Dtype.Int ]))

let test_schema_key_updatable_rejected () =
  Alcotest.check_raises "key+updatable"
    (Invalid_argument "Schema.make: key attribute \"k\" cannot be updatable") (fun () ->
      ignore (Schema.make [ Schema.attr ~key:true ~updatable:true "k" Dtype.Int ]))

let test_value_compare_null_lowest () =
  Alcotest.(check bool) "null < int" true (Value.compare Value.Null (Value.Int 0) < 0);
  Alcotest.(check bool) "null = null" true (Value.compare Value.Null Value.Null = 0)

let test_value_arith () =
  check Alcotest.int "int add"
    (match Value.add (Value.Int 2) (Value.Int 3) with Value.Int n -> n | _ -> -1)
    5;
  Alcotest.(check bool) "null propagates" true
    (Value.is_null (Value.add (Value.Int 2) Value.Null))

let test_value_mul_div_neg () =
  Alcotest.(check bool) "int mul" true (Value.equal (Value.mul (Value.Int 6) (Value.Int 7)) (Value.Int 42));
  Alcotest.(check bool) "int div truncates" true
    (Value.equal (Value.div (Value.Int 7) (Value.Int 2)) (Value.Int 3));
  Alcotest.(check bool) "mixed promotes" true
    (Value.equal (Value.mul (Value.Int 2) (Value.Float 1.5)) (Value.Float 3.0));
  Alcotest.(check bool) "neg" true (Value.equal (Value.neg (Value.Int 5)) (Value.Int (-5)));
  Alcotest.(check bool) "neg null" true (Value.is_null (Value.neg Value.Null));
  Alcotest.(check bool) "div by zero raises" true
    (try ignore (Value.div (Value.Int 1) (Value.Int 0)); false with Division_by_zero -> true);
  Alcotest.(check bool) "non-numeric raises" true
    (try ignore (Value.add (Value.Str "a") (Value.Int 1)); false with Invalid_argument _ -> true)

let test_value_to_float () =
  Alcotest.(check (float 1e-9)) "int" 3.0 (Value.to_float (Value.Int 3));
  Alcotest.(check (float 1e-9)) "null is zero" 0.0 (Value.to_float Value.Null);
  Alcotest.(check bool) "string raises" true
    (try ignore (Value.to_float (Value.Str "x")); false with Invalid_argument _ -> true)

let test_value_date_pp () =
  check Alcotest.string "paper format" "10/14/96" (Value.to_string (Value.date_of_mdy 10 14 96))

let test_value_int_pp_thousands () =
  check Alcotest.string "grouped" "10,000" (Value.to_string (Value.Int 10000));
  check Alcotest.string "small" "150" (Value.to_string (Value.Int 150));
  check Alcotest.string "negative" "-1,234,567" (Value.to_string (Value.Int (-1234567)))

let test_value_encode_roundtrip () =
  let cases =
    [
      (Dtype.Int, Value.Int 12345);
      (Dtype.Int, Value.Int (-7));
      (Dtype.Int, Value.Null);
      (Dtype.Float, Value.Float 3.25);
      (Dtype.Float, Value.Null);
      (Dtype.Str 10, Value.Str "hello");
      (Dtype.Str 10, Value.Str "");
      (Dtype.Str 10, Value.Null);
      (Dtype.Date, Value.date_of_mdy 1 1 2000);
      (Dtype.Date, Value.Null);
      (Dtype.Bool, Value.Bool true);
      (Dtype.Bool, Value.Bool false);
      (Dtype.Bool, Value.Null);
    ]
  in
  List.iter
    (fun (dt, v) ->
      let buf = Value.encode dt v in
      check Alcotest.int "width" (Dtype.width dt) (Bytes.length buf);
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Value.to_string v))
        true
        (Value.equal v (Value.decode dt buf 0)))
    cases

let test_value_encode_type_mismatch () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Value.encode Dtype.Int (Value.Str "x"));
       false
     with Invalid_argument _ -> true)

let test_tuple_make_and_get () =
  check Alcotest.string "city" "San Jose"
    (Value.to_string (Tuple.get_by_name daily_sales sample_tuple "city"));
  check Alcotest.int "arity" 5 (Tuple.arity sample_tuple)

let test_tuple_arity_mismatch () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tuple.make daily_sales [ Value.Int 1 ]);
       false
     with Invalid_argument _ -> true)

let test_tuple_type_mismatch () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Tuple.make daily_sales
            [ Value.Int 1; Value.Str "CA"; Value.Str "x"; Value.date_of_mdy 1 1 99; Value.Int 0 ]);
       false
     with Invalid_argument _ -> true)

let test_tuple_set () =
  let t = Tuple.set sample_tuple 4 (Value.Int 42) in
  check Alcotest.string "updated" "42" (Value.to_string (Tuple.get t 4));
  check Alcotest.string "original untouched" "10,000" (Value.to_string (Tuple.get sample_tuple 4))

let test_tuple_key_of () =
  let key = Tuple.key_of daily_sales sample_tuple in
  check Alcotest.int "key arity" 4 (List.length key);
  check Alcotest.string "first" "San Jose" (Value.to_string (List.hd key))

let test_tuple_encode_roundtrip () =
  let buf = Tuple.encode daily_sales sample_tuple in
  check Alcotest.int "width" 42 (Bytes.length buf);
  Alcotest.(check bool) "roundtrip" true
    (Tuple.equal sample_tuple (Tuple.decode daily_sales buf))

let test_tuple_encode_roundtrip_with_nulls () =
  let t =
    Tuple.make daily_sales
      [ Value.Str "X"; Value.Str "YZ"; Value.Str "w"; Value.Null; Value.Null ]
  in
  Alcotest.(check bool) "roundtrip" true
    (Tuple.equal t (Tuple.decode daily_sales (Tuple.encode daily_sales t)))

(* Property: random tuples round-trip through physical encoding. *)
let gen_value_for dt =
  let open QCheck.Gen in
  match dt with
  | Dtype.Int -> map (fun n -> Value.Int n) (int_range (-1000000) 1000000)
  | Dtype.Float -> map (fun f -> Value.Float f) (float_range (-1e6) 1e6)
  | Dtype.Str n ->
    map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 n))
  | Dtype.Date ->
    map2 (fun m d -> Value.date_of_mdy m d 96) (int_range 1 12) (int_range 1 28)
  | Dtype.Bool -> map (fun b -> Value.Bool b) bool

let gen_tuple =
  let open QCheck.Gen in
  let attrs = Schema.attributes daily_sales in
  let rec values = function
    | [] -> return []
    | a :: rest ->
      let* v =
        frequency [ (9, gen_value_for a.Schema.dtype); (1, return Value.Null) ]
      in
      let* vs = values rest in
      return (v :: vs)
  in
  map (fun vs -> Tuple.make daily_sales vs) (values attrs)

let qcheck_tuple_roundtrip =
  QCheck.Test.make ~name:"tuple encode/decode roundtrip" ~count:500
    (QCheck.make gen_tuple ~print:(fun t -> String.concat "," (Tuple.to_strings t)))
    (fun t -> Tuple.equal t (Tuple.decode daily_sales (Tuple.encode daily_sales t)))

let qcheck_value_compare_total_order =
  let gen =
    QCheck.Gen.oneof
      [
        gen_value_for Dtype.Int;
        gen_value_for (Dtype.Str 8);
        gen_value_for Dtype.Date;
        QCheck.Gen.return Value.Null;
      ]
  in
  QCheck.Test.make ~name:"value compare antisymmetric and transitive-ish" ~count:500
    (QCheck.make (QCheck.Gen.triple gen gen gen) ~print:(fun (a, b, c) ->
         Printf.sprintf "%s %s %s" (Value.to_string a) (Value.to_string b) (Value.to_string c)))
    (fun (a, b, c) ->
      let sgn x = compare x 0 in
      sgn (Value.compare a b) = -sgn (Value.compare b a)
      && (not (Value.compare a b <= 0 && Value.compare b c <= 0) || Value.compare a c <= 0))

(* Grouping hashes keys with [Value.hash] and compares them with
   [Value.equal], which has [Int n] equal to [Float (float_of_int n)]; the
   generator draws from a small numeric domain so such pairs are common,
   including the signed zeros, NaN and integers past 2^53 whose float
   image rounds. *)
let qcheck_value_hash_consistent =
  let big = 1 lsl 53 in
  let gen =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map (fun n -> Value.Int n) (QCheck.Gen.int_range (-3) 3);
        QCheck.Gen.map (fun n -> Value.Float (float_of_int n)) (QCheck.Gen.int_range (-3) 3);
        QCheck.Gen.oneofl
          [
            Value.Float 0.5; Value.Float (-0.0); Value.Float nan; Value.Float (-.nan);
            Value.Int big; Value.Int (big + 1); Value.Float (float_of_int big);
            Value.Str "ab"; Value.Str "ab"; Value.Date 19961014; Value.Int 19961014;
            Value.Bool true; Value.Null;
          ];
      ]
  in
  QCheck.Test.make ~name:"value equal implies equal hash" ~count:1000
    (QCheck.make (QCheck.Gen.pair gen gen) ~print:(fun (a, b) ->
         Printf.sprintf "%s %s" (Value.to_string a) (Value.to_string b)))
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* [Tuple.encode_into] over a buffer full of garbage, at a non-zero
   offset, writes exactly [Tuple.encode]'s bytes and nothing outside the
   record: every cell is written in full (a string's tail zeroed), since a
   page slot holds the previous record, not zeros.  Schemas are random,
   every dtype draws [Null] sometimes and strings often run to full
   width. *)
let gen_dtype =
  QCheck.Gen.(
    oneof
      [
        return Dtype.Int;
        return Dtype.Float;
        map (fun n -> Dtype.Str n) (int_range 1 12);
        return Dtype.Date;
        return Dtype.Bool;
      ])

let gen_cell dt =
  let open QCheck.Gen in
  let value =
    match dt with
    | Dtype.Float -> map (fun f -> Value.Float f) (float_range (-1e6) 1e6)
    | Dtype.Str n ->
      oneof
        [
          map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'z') (return n));
          gen_value_for dt;
        ]
    | _ -> gen_value_for dt
  in
  frequency [ (4, value); (1, return Value.Null) ]

let gen_schema_and_tuple =
  let open QCheck.Gen in
  let* dts = list_size (int_range 1 8) gen_dtype in
  let* cells = flatten_l (List.map gen_cell dts) in
  let schema =
    Schema.make (List.mapi (fun i dt -> Schema.attr (Printf.sprintf "a%d" i) dt) dts)
  in
  let* off = int_range 1 9 in
  return (schema, Tuple.make schema cells, off)

let qcheck_encode_into =
  QCheck.Test.make ~name:"tuple encode_into at an offset = encode, over garbage" ~count:500
    (QCheck.make gen_schema_and_tuple ~print:(fun (schema, t, off) ->
         Format.asprintf "%a | %s @%d" Schema.pp schema (String.concat "," (Tuple.to_strings t)) off))
    (fun (schema, t, off) ->
      let w = Schema.width schema in
      let buf = Bytes.make (off + w + 5) '\xab' in
      Tuple.encode_into schema t buf off;
      Bytes.equal (Bytes.sub buf off w) (Tuple.encode schema t)
      && Bytes.equal (Bytes.sub buf 0 off) (Bytes.make off '\xab')
      && Bytes.equal (Bytes.sub buf (off + w) 5) (Bytes.make 5 '\xab')
      && Tuple.equal t (Tuple.decode_from schema buf off))

(* A short string written over a longer one: the cell's tail is zeroed,
   so the record decodes to the short string, not a splice of both. *)
let test_encode_into_short_over_long () =
  let schema =
    Schema.make [ Schema.attr "s" (Dtype.Str 10); Schema.attr "n" Dtype.Int ]
  in
  let buf = Tuple.encode schema (Tuple.make schema [ Value.Str "longerword"; Value.Int 7 ]) in
  Tuple.encode_into schema (Tuple.make schema [ Value.Str "ab"; Value.Int 7 ]) buf 0;
  check Alcotest.string "tail zeroed" ("ab" ^ String.make 8 '\000') (Bytes.sub_string buf 0 10);
  check Alcotest.string "decodes to the short string" "ab"
    (Value.to_string (Tuple.get (Tuple.decode schema buf) 0))

(* A type mismatch in the last cell is caught before the first byte
   lands: the target buffer is exactly as it was. *)
let test_encode_into_rejects_before_writing () =
  let buf = Tuple.encode daily_sales sample_tuple in
  let before = Bytes.copy buf in
  let bad =
    Tuple.unsafe_of_array
      [|
        Value.Str "Palo Alto"; Value.Str "CA"; Value.Str "tennis"; Value.date_of_mdy 1 2 97;
        Value.Str "not an int";
      |]
  in
  Alcotest.(check bool) "raises" true
    (try
       Tuple.encode_into daily_sales bad buf 0;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "buffer untouched" true (Bytes.equal buf before)

(* Decoding through a scan dictionary gives the plain decode's values, and
   repeated string cells come back as one shared value. *)
let test_intern_decode () =
  let dt = Dtype.Str 6 in
  let cells = [ Value.Str "ab"; Value.Null; Value.Str ""; Value.Str "ab"; Value.Str "abcdef" ] in
  let buf = Bytes.concat Bytes.empty (List.map (Value.encode dt) cells) in
  let d = Value.Intern.create () in
  let decoded = List.mapi (fun i _ -> Value.Intern.decode d dt buf (i * 6)) cells in
  List.iteri
    (fun i v ->
      Alcotest.(check bool) (Printf.sprintf "cell %d" i) true
        (Value.equal v (Value.decode dt buf (i * 6))))
    decoded;
  Alcotest.(check bool) "repeated string shared" true (List.nth decoded 0 == List.nth decoded 3);
  let ints = Value.encode Dtype.Int (Value.Int 42) in
  Alcotest.(check bool) "non-string cells decode as usual" true
    (Value.equal (Value.Intern.decode d Dtype.Int ints 0) (Value.Int 42));
  (* More distinct strings than the dictionary keeps still decode right. *)
  for i = 0 to 5000 do
    let s = string_of_int i in
    let cell = Value.encode dt (Value.Str s) in
    Alcotest.(check bool) "distinct string" true
      (Value.equal (Value.Intern.decode d dt cell 0) (Value.Str s))
  done

let suite =
  [
    Alcotest.test_case "dtype widths" `Quick test_dtype_widths;
    Alcotest.test_case "DailySales is 42 bytes (Fig 3)" `Quick test_schema_width_matches_paper;
    Alcotest.test_case "schema flags" `Quick test_schema_flags;
    Alcotest.test_case "schema duplicate rejected" `Quick test_schema_duplicate_rejected;
    Alcotest.test_case "schema key+updatable rejected" `Quick test_schema_key_updatable_rejected;
    Alcotest.test_case "null sorts lowest" `Quick test_value_compare_null_lowest;
    Alcotest.test_case "value arithmetic" `Quick test_value_arith;
    Alcotest.test_case "value mul/div/neg" `Quick test_value_mul_div_neg;
    Alcotest.test_case "value to_float" `Quick test_value_to_float;
    Alcotest.test_case "date pp mm/dd/yy" `Quick test_value_date_pp;
    Alcotest.test_case "int pp thousands" `Quick test_value_int_pp_thousands;
    Alcotest.test_case "value encode roundtrip" `Quick test_value_encode_roundtrip;
    Alcotest.test_case "value encode type mismatch" `Quick test_value_encode_type_mismatch;
    Alcotest.test_case "tuple make/get" `Quick test_tuple_make_and_get;
    Alcotest.test_case "tuple arity mismatch" `Quick test_tuple_arity_mismatch;
    Alcotest.test_case "tuple type mismatch" `Quick test_tuple_type_mismatch;
    Alcotest.test_case "tuple functional set" `Quick test_tuple_set;
    Alcotest.test_case "tuple key_of" `Quick test_tuple_key_of;
    Alcotest.test_case "tuple encode roundtrip" `Quick test_tuple_encode_roundtrip;
    Alcotest.test_case "tuple roundtrip with nulls" `Quick test_tuple_encode_roundtrip_with_nulls;
    QCheck_alcotest.to_alcotest qcheck_tuple_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_encode_into;
    Alcotest.test_case "encode_into: short string over long zeroes the tail" `Quick
      test_encode_into_short_over_long;
    Alcotest.test_case "encode_into: mismatch raises before writing" `Quick
      test_encode_into_rejects_before_writing;
    QCheck_alcotest.to_alcotest qcheck_value_compare_total_order;
    QCheck_alcotest.to_alcotest qcheck_value_hash_consistent;
    Alcotest.test_case "intern decode = decode, strings shared" `Quick test_intern_decode;
  ]
