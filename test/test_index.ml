(* Unit and property tests for the B+-tree index. *)

module Value = Vnl_relation.Value
module Bptree = Vnl_index.Bptree

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

let test_insert_batch_basic () =
  let t = Bptree.create ~order:4 () in
  (* Seed sequentially, then pour in a large sorted batch that forces leaf
     fan-out and root growth. *)
  for i = 0 to 49 do
    Bptree.insert t (k (2 * i)) (2 * i)
  done;
  let batch = Array.init 200 (fun i -> (k ((2 * i) + 1), (2 * i) + 1)) in
  Bptree.insert_batch t batch;
  check Alcotest.int "length" 250 (Bptree.length t);
  (match Bptree.check_invariants t with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "invariant: %s" e);
  for i = 0 to 99 do
    if Bptree.find t (k i) <> Some i then Alcotest.failf "missing key %d" i
  done

let test_insert_batch_replaces () =
  let t = Bptree.create ~order:4 () in
  for i = 0 to 9 do
    Bptree.insert t (k i) 0
  done;
  Bptree.insert_batch t (Array.init 10 (fun i -> (k i, i * 10)));
  check Alcotest.int "length unchanged" 10 (Bptree.length t);
  check (Alcotest.option Alcotest.int) "payload replaced" (Some 70) (Bptree.find t (k 7))

let test_insert_batch_rejects_unsorted () =
  let t = Bptree.create ~order:4 () in
  Alcotest.check_raises "unsorted" (Invalid_argument "Bptree.insert_batch: keys not sorted or not distinct")
    (fun () -> Bptree.insert_batch t [| (k 2, 2); (k 1, 1) |]);
  Alcotest.check_raises "duplicate" (Invalid_argument "Bptree.insert_batch: keys not sorted or not distinct")
    (fun () -> Bptree.insert_batch t [| (k 1, 1); (k 1, 2) |])

let qcheck_insert_batch_vs_sequential =
  (* The batch insert may shape the tree differently, but its contents,
     length, and invariants must match per-key insertion exactly. *)
  QCheck.Test.make ~name:"insert_batch = sequential inserts" ~count:200
    QCheck.(pair (list_of_size Gen.(0 -- 150) (int_range 0 300)) (list_of_size Gen.(0 -- 150) (int_range 0 300)))
    (fun (seed, batch) ->
      let batch = List.sort_uniq compare batch in
      let seq = Bptree.create ~order:4 () and bulk = Bptree.create ~order:4 () in
      List.iter
        (fun i ->
          Bptree.insert seq (k i) (i * 3);
          Bptree.insert bulk (k i) (i * 3))
        seed;
      List.iter (fun i -> Bptree.insert seq (k i) (i * 7)) batch;
      Bptree.insert_batch bulk (Array.of_list (List.map (fun i -> (k i, i * 7)) batch));
      Bptree.to_list seq = Bptree.to_list bulk
      && Bptree.length seq = Bptree.length bulk
      && match Bptree.check_invariants bulk with Ok _ -> true | Error _ -> false)

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
          (1, map (fun keys -> `Find_batch keys) (list_size (0 -- 12) key_gen));
          (1, map2 (fun a b -> `Range (a, b)) key_gen key_gen);
        ])
  in
  let print_key key = String.concat "/" (List.map Value.to_string key) in
  let print = function
    | `Insert (key, v) -> Printf.sprintf "insert %s %d" (print_key key) v
    | `Remove key -> "remove " ^ print_key key
    | `Find key -> "find " ^ print_key key
    | `Find_batch keys -> "find_batch " ^ String.concat "," (List.map print_key keys)
    | `Range (a, b) -> Printf.sprintf "range %s %s" (print_key a) (print_key b)
  in
  Test.make ~name:"tree = linear-scan reference (order 4)" ~count:300
    (make ~print:(Print.list print) Gen.(list_size (0 -- 300) op_gen))
    (fun ops ->
      let t = Bptree.create ~order:4 () in
      let model = ref [] in
      let cmp = Bptree.compare_keys in
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
        | `Find_batch keys ->
          let keys = Array.of_list (List.sort cmp keys) in
          Bptree.find_batch t keys = Array.map find_model keys
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
    Alcotest.test_case "insert_batch splits and grows" `Quick test_insert_batch_basic;
    Alcotest.test_case "insert_batch replaces payloads" `Quick test_insert_batch_replaces;
    Alcotest.test_case "insert_batch rejects unsorted input" `Quick
      test_insert_batch_rejects_unsorted;
    QCheck_alcotest.to_alcotest qcheck_insert_batch_vs_sequential;
    QCheck_alcotest.to_alcotest qcheck_vs_map;
    QCheck_alcotest.to_alcotest qcheck_range_equals_filter;
    QCheck_alcotest.to_alcotest qcheck_vs_linear_scan;
  ]
