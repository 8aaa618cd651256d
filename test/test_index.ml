(* Unit and property tests for the B+-tree and the unique-key hash index. *)

module Value = Vnl_relation.Value
module Bptree = Vnl_index.Bptree
module Hash_index = Vnl_index.Hash_index

let check = Alcotest.check

let k i = [ Value.Int i ]

let test_empty () =
  let t = Bptree.create () in
  check Alcotest.int "length" 0 (Bptree.length t);
  Alcotest.(check bool) "find" true (Bptree.find t (k 1) = None);
  check Alcotest.int "height" 1 (Bptree.height t)

let test_insert_find () =
  let t = Bptree.create () in
  Bptree.insert t (k 1) "a";
  Bptree.insert t (k 2) "b";
  check (Alcotest.option Alcotest.string) "find 1" (Some "a") (Bptree.find t (k 1));
  check (Alcotest.option Alcotest.string) "find 2" (Some "b") (Bptree.find t (k 2));
  check (Alcotest.option Alcotest.string) "find 3" None (Bptree.find t (k 3))

let test_replace () =
  let t = Bptree.create () in
  Bptree.insert t (k 1) "a";
  Bptree.insert t (k 1) "b";
  check Alcotest.int "length" 1 (Bptree.length t);
  check (Alcotest.option Alcotest.string) "replaced" (Some "b") (Bptree.find t (k 1))

let test_many_ordered_inserts () =
  let t = Bptree.create ~order:4 () in
  for i = 1 to 1000 do
    Bptree.insert t (k i) i
  done;
  check Alcotest.int "length" 1000 (Bptree.length t);
  Alcotest.(check bool) "height grew" true (Bptree.height t > 1);
  for i = 1 to 1000 do
    if Bptree.find t (k i) <> Some i then Alcotest.failf "missing key %d" i
  done;
  (match Bptree.check_invariants t with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "invariant: %s" e)

let test_reverse_inserts () =
  let t = Bptree.create ~order:4 () in
  for i = 1000 downto 1 do
    Bptree.insert t (k i) i
  done;
  check (Alcotest.list Alcotest.int) "sorted iteration" (List.init 1000 (fun i -> i + 1))
    (List.map snd (Bptree.to_list t))

let test_remove () =
  let t = Bptree.create ~order:4 () in
  for i = 1 to 100 do
    Bptree.insert t (k i) i
  done;
  for i = 1 to 100 do
    if i mod 2 = 0 then Alcotest.(check bool) "removed" true (Bptree.remove t (k i))
  done;
  check Alcotest.int "length" 50 (Bptree.length t);
  Alcotest.(check bool) "remove absent" false (Bptree.remove t (k 2));
  for i = 1 to 100 do
    let expected = if i mod 2 = 0 then None else Some i in
    if Bptree.find t (k i) <> expected then Alcotest.failf "wrong lookup for %d" i
  done;
  match Bptree.check_invariants t with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

let test_range () =
  let t = Bptree.create ~order:8 () in
  for i = 1 to 50 do
    Bptree.insert t (k i) i
  done;
  let seen = ref [] in
  Bptree.range t ~lo:(k 10) ~hi:(k 20) (fun _ v -> seen := v :: !seen);
  check (Alcotest.list Alcotest.int) "range" (List.init 11 (fun i -> i + 10)) (List.rev !seen)

let test_composite_keys () =
  let t = Bptree.create () in
  let key city date = [ Value.Str city; Value.Date date ] in
  Bptree.insert t (key "San Jose" 19961014) 1;
  Bptree.insert t (key "San Jose" 19961015) 2;
  Bptree.insert t (key "Berkeley" 19961014) 3;
  check (Alcotest.option Alcotest.int) "exact probe" (Some 2)
    (Bptree.find t (key "San Jose" 19961015));
  check Alcotest.int "length" 3 (Bptree.length t)

let qcheck_vs_map =
  let open QCheck in
  let ops =
    Gen.(
      list_size (0 -- 500)
        (frequency
           [
             (5, map (fun i -> `Insert i) (int_range 0 100));
             (3, map (fun i -> `Remove i) (int_range 0 100));
             (2, map (fun i -> `Find i) (int_range 0 100));
           ]))
  in
  Test.make ~name:"bptree agrees with Map reference" ~count:200 (make ops) (fun ops ->
      let t = Bptree.create ~order:4 () in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Insert i ->
            Bptree.insert t (k i) (i * 10);
            Hashtbl.replace model i (i * 10)
          | `Remove i ->
            let was = Bptree.remove t (k i) in
            let expected = Hashtbl.mem model i in
            Hashtbl.remove model i;
            if was <> expected then ok := false
          | `Find i ->
            if Bptree.find t (k i) <> Hashtbl.find_opt model i then ok := false)
        ops;
      !ok
      && Bptree.length t = Hashtbl.length model
      && (match Bptree.check_invariants t with Ok _ -> true | Error _ -> false)
      &&
      let sorted_model =
        List.sort compare (Hashtbl.fold (fun key v acc -> (key, v) :: acc) model [])
      in
      let tree_list = List.map (fun (key, v) -> (match key with [ Value.Int i ] -> i | _ -> -1), v)
          (Bptree.to_list t)
      in
      tree_list = sorted_model)

let qcheck_range_equals_filter =
  QCheck.Test.make ~name:"pruned range scan = filtered iteration" ~count:150
    QCheck.(triple (list_of_size Gen.(0 -- 200) (int_range 0 500)) (int_range 0 500) (int_range 0 500))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let t = Bptree.create ~order:4 () in
      List.iter (fun key -> Bptree.insert t (k key) key) keys;
      let via_range = ref [] in
      Bptree.range t ~lo:(k lo) ~hi:(k hi) (fun _ v -> via_range := v :: !via_range);
      let via_filter =
        List.filter (fun (key, _) ->
            match key with [ Value.Int x ] -> x >= lo && x <= hi | _ -> false)
          (Bptree.to_list t)
        |> List.map snd
      in
      List.rev !via_range = via_filter)

(* Every tree operation against a linear-scan reference: a sorted
   association list searched front to back, so no binary search (inner
   separators or leaves) can agree with it by sharing a bug.  Composite
   keys over a small domain at order 4 give many splits, replacements and
   removals of present and absent keys. *)
let qcheck_vs_linear_scan =
  let open QCheck in
  let key_gen = Gen.(map2 (fun a s -> [ Value.Int a; Value.Str s ]) (int_range 0 40) (oneofl [ "a"; "b"; "cc" ])) in
  let op_gen =
    Gen.(
      frequency
        [
          (5, map2 (fun key v -> `Insert (key, v)) key_gen (int_range 0 999));
          (2, map (fun key -> `Remove key) key_gen);
          (2, map (fun key -> `Find key) key_gen);
          (1, map2 (fun a b -> `Range (a, b)) key_gen key_gen);
        ])
  in
  let print_key key = String.concat "/" (List.map Value.to_string key) in
  let print = function
    | `Insert (key, v) -> Printf.sprintf "insert %s %d" (print_key key) v
    | `Remove key -> "remove " ^ print_key key
    | `Find key -> "find " ^ print_key key
    | `Range (a, b) -> Printf.sprintf "range %s %s" (print_key a) (print_key b)
  in
  Test.make ~name:"tree = linear-scan reference (order 4)" ~count:300
    (make ~print:(Print.list print) Gen.(list_size (0 -- 300) op_gen))
    (fun ops ->
      let t = Bptree.create ~order:4 () in
      let model = ref [] in
      let cmp a b = List.compare Value.compare a b in
      let find_model key =
        let rec scan = function
          | [] -> None
          | (k', v) :: rest -> if cmp k' key = 0 then Some v else scan rest
        in
        scan !model
      in
      let rec insert_model key v = function
        | [] -> [ (key, v) ]
        | ((k', _) as e) :: rest ->
          let c = cmp key k' in
          if c = 0 then (key, v) :: rest
          else if c < 0 then (key, v) :: e :: rest
          else e :: insert_model key v rest
      in
      let step = function
        | `Insert (key, v) ->
          Bptree.insert t key v;
          model := insert_model key v !model;
          true
        | `Remove key ->
          let expected = find_model key <> None in
          model := List.filter (fun (k', _) -> cmp k' key <> 0) !model;
          Bptree.remove t key = expected
        | `Find key -> Bptree.find t key = find_model key
        | `Range (a, b) ->
          let lo, hi = if cmp a b <= 0 then (a, b) else (b, a) in
          let seen = ref [] in
          Bptree.range t ~lo ~hi (fun key v -> seen := (key, v) :: !seen);
          List.rev !seen
          = List.filter (fun (key, _) -> cmp key lo >= 0 && cmp key hi <= 0) !model
      in
      List.for_all step ops
      && Bptree.to_list t = !model
      && Bptree.length t = List.length !model
      && match Bptree.check_invariants t with Ok _ -> true | Error _ -> false)

(* --- unique-key hash index ---------------------------------------------- *)

(* Pairs of cells [Value.equal] holds for, in different representations:
   a numeric as [Int n] and as [Float (float n)], a string as two physically
   distinct copies, [Null], [Date], and the two float zeros. *)
let equal_cells_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> (Value.Int n, Value.Float (float_of_int n))) (int_range (-100_000) 100_000);
        return (Value.Null, Value.Null);
        map
          (fun s -> (Value.Str s, Value.Str (Bytes.to_string (Bytes.of_string s))))
          string_printable;
        map (fun d -> (Value.Date d, Value.Date d)) (int_range 19_000_101 20_991_231);
        return (Value.Float (-0.0), Value.Int 0);
      ])

let qcheck_key_hash_agrees_with_equal =
  let print (a, b) =
    Printf.sprintf "%s | %s"
      (String.concat "," (List.map Value.to_string a))
      (String.concat "," (List.map Value.to_string b))
  in
  QCheck.Test.make ~name:"key hash agrees with cell-wise Value.equal" ~count:500
    (QCheck.make ~print QCheck.Gen.(map List.split (list_size (0 -- 6) equal_cells_gen)))
    (fun (a, b) ->
      let index = Hash_index.create () in
      Hash_index.replace index a ();
      Hash_index.Key.equal a b
      && Hash_index.Key.hash a = Hash_index.Key.hash b
      && Hash_index.find index b = Some ())

(* Every index operation against an association list keyed by a canonical
   (number, string) pair, so the model shares neither the index's hash nor
   its equality.  Keys come as [Int] or [Float] at random, and with the
   empty string as a one-cell key (a prefix of the two-cell keys, and
   another key); the table starts at its smallest size, so chains collide
   and the bucket array doubles several times. *)
let qcheck_hash_index_vs_assoc =
  let open QCheck in
  let key_gen =
    Gen.(
      map3
        (fun n s as_float ->
          let num = if as_float then Value.Float (float_of_int n) else Value.Int n in
          ((n, s), if s = "" then [ num ] else [ num; Value.Str s ]))
        (int_range 0 60)
        (oneofl [ ""; "a"; "b"; "cc" ])
        bool)
  in
  let op_gen =
    Gen.(
      frequency
        [
          (5, map2 (fun key v -> `Replace (key, v)) key_gen (int_range 0 999));
          (2, map (fun key -> `Remove key) key_gen);
          (2, map (fun key -> `Find key) key_gen);
          (1, map (fun key -> `Mem key) key_gen);
        ])
  in
  let print_key ((n, s), _) = Printf.sprintf "%d/%s" n s in
  let print = function
    | `Replace (key, v) -> Printf.sprintf "replace %s %d" (print_key key) v
    | `Remove key -> "remove " ^ print_key key
    | `Find key -> "find " ^ print_key key
    | `Mem key -> "mem " ^ print_key key
  in
  Test.make ~name:"hash index = assoc-list reference (tiny table)" ~count:300
    (make ~print:(Print.list print) Gen.(list_size (0 -- 400) op_gen))
    (fun ops ->
      let t = Hash_index.create ~size:1 () in
      let start = Hash_index.capacity t in
      let model = ref [] and peak = ref 0 in
      let step = function
        | `Replace ((canon, key), v) ->
          Hash_index.replace t key v;
          model := (canon, v) :: List.remove_assoc canon !model;
          peak := max !peak (List.length !model);
          true
        | `Remove (canon, key) ->
          let expected = List.mem_assoc canon !model in
          model := List.remove_assoc canon !model;
          Hash_index.remove t key = expected
        | `Find (canon, key) -> Hash_index.find t key = List.assoc_opt canon !model
        | `Mem (canon, key) -> Hash_index.mem t key = List.mem_assoc canon !model
      in
      List.for_all (fun op -> step op && Hash_index.length t = List.length !model) ops
      && (!peak <= start || Hash_index.capacity t >= !peak))

let suite =
  [
    Alcotest.test_case "empty tree" `Quick test_empty;
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "insert replaces" `Quick test_replace;
    Alcotest.test_case "1000 ordered inserts" `Quick test_many_ordered_inserts;
    Alcotest.test_case "reverse inserts iterate sorted" `Quick test_reverse_inserts;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "range scan" `Quick test_range;
    Alcotest.test_case "composite keys" `Quick test_composite_keys;
    QCheck_alcotest.to_alcotest qcheck_vs_map;
    QCheck_alcotest.to_alcotest qcheck_range_equals_filter;
    QCheck_alcotest.to_alcotest qcheck_vs_linear_scan;
    QCheck_alcotest.to_alcotest qcheck_key_hash_agrees_with_equal;
    QCheck_alcotest.to_alcotest qcheck_hash_index_vs_assoc;
  ]
