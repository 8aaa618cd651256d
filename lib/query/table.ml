module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Heap_file = Vnl_storage.Heap_file
module Bptree = Vnl_index.Bptree
module Hash_index = Vnl_index.Hash_index

exception Unique_violation of string

(* Secondary indexes are non-unique: entries are keyed by the indexed
   attribute values with the rid appended as a uniquifier, so equal
   attribute values coexist and lookups are prefix range scans. *)
type secondary = { attrs : string list; positions : int list; tree : unit Bptree.t }

type t = {
  mutable name : string;
  heap : Heap_file.t;
  index : Heap_file.rid Hash_index.t option;  (** Present iff the schema has a unique key. *)
  secondaries : (string, secondary) Hashtbl.t;  (** O(1) resolution by name. *)
  mutable sec_order : string list;  (** Creation order, oldest first. *)
  mutable version : int;  (** Bumped on index DDL; keys plan-cache validity. *)
}

let create pool ~name schema =
  let heap = Heap_file.create pool schema in
  let index = if Schema.has_unique_key schema then Some (Hash_index.create ()) else None in
  { name; heap; index; secondaries = Hashtbl.create 4; sec_order = []; version = 0 }

let attach_heap pool ~name heap secondary =
  let schema = Vnl_storage.Heap_file.schema heap in
  ignore pool;
  let index =
    if Schema.has_unique_key schema then begin
      (* Sized from the tuple count, so the rebuild scan never resizes. *)
      let index = Hash_index.create ~size:(Heap_file.tuple_count heap) () in
      Heap_file.scan heap (fun rid tuple ->
          Hash_index.replace index (Tuple.key_of schema tuple) rid);
      Some index
    end
    else None
  in
  let t = { name; heap; index; secondaries = Hashtbl.create 4; sec_order = []; version = 0 } in
  t, secondary

let name t = t.name

(* For Database.rename_table only: the catalog hashtable key and this field
   must change together. *)
let set_name t name = t.name <- name

let schema t = Heap_file.schema t.heap

let heap t = t.heap

let has_key t = t.index <> None

let version t = t.version

let key_of t tuple = Tuple.key_of (schema t) tuple

(* A secondary entry's key: the indexed cells, then the rid. *)
let sec_key cells (rid : Heap_file.rid) =
  cells @ Vnl_relation.Value.[ Int rid.Heap_file.page; Int rid.Heap_file.slot ]

let sec_entry_key sec tuple rid = sec_key (Tuple.project tuple sec.positions) rid

let iter_secondaries t f =
  List.iter (fun iname -> f (Hashtbl.find t.secondaries iname)) t.sec_order

let sec_remove t tuple rid =
  iter_secondaries t (fun sec -> ignore (Bptree.remove sec.tree (sec_entry_key sec tuple rid)))

(* The cells at [positions] of the record at [off], decoded in place. *)
let cells_at schema img off positions =
  let dts = Schema.dtypes schema and offs = Schema.cell_offsets schema in
  List.map (fun p -> Vnl_relation.Value.decode dts.(p) img (off + offs.(p))) positions

(* [~check:false] skips the duplicate-key probe for callers that already
   resolved the key against the index this transaction (the maintenance
   appliers and the batch pipeline); everyone else keeps the check.  Index
   entries go in inside the insert run, just after each record's bytes;
   [key i] and [cells i img off positions] read record [i]'s unique key
   and indexed cells (the record written at [off] in [img]). *)
let insert_run ~check t n ~key ~cells write =
  let after i rid img off =
    (match t.index with Some index -> Hash_index.replace index (key i) rid | None -> ());
    iter_secondaries t (fun sec ->
        Bptree.insert sec.tree (sec_key (cells i img off sec.positions) rid) ())
  in
  let before i =
    match t.index with
    | Some index when check && Hash_index.mem index (key i) ->
      raise (Unique_violation (Printf.sprintf "table %s: duplicate key" t.name))
    | Some _ | None -> ()
  in
  Heap_file.insert_many ~before ~after t.heap n write

let insert_many ?(check = true) t tuples =
  insert_run ~check t (Array.length tuples)
    ~key:(fun i -> key_of t tuples.(i))
    ~cells:(fun i _ _ positions -> Tuple.project tuples.(i) positions)
    (fun i -> Tuple.encode_into (schema t) tuples.(i))

let insert ?check t tuple = (insert_many ?check t [| tuple |]).(0)

let insert_records t n ~key write =
  let s = schema t in
  insert_run ~check:false t n ~key ~cells:(fun _ img off -> cells_at s img off) write

(* Do [a] and [b] agree at every position?  Compared in place: the
   common update leaves every key alone, so no key list is built unless
   one moved. *)
let rec same_at a b = function
  | [] -> true
  | i :: rest -> Vnl_relation.Value.equal (Tuple.get a i) (Tuple.get b i) && same_at a b rest

(* Index upkeep for one record rewrite: move the unique-key entry if the
   key changed (2VNL itself never changes keys, but the engine supports
   it), and a secondary entry only if that index's attributes changed.
   Beyond saving tree operations per update, the per-index test is what
   the pipelined maintenance path leans on — an update whose assignments
   avoid every indexed attribute has an empty index footprint and may run
   on a worker domain while another partition owns the trees. *)
let reindex t rid old tuple =
  (match t.index with
  | Some index when not (same_at old tuple (Schema.key_indices (schema t))) ->
    let new_key = key_of t tuple in
    if Hash_index.mem index new_key then
      raise (Unique_violation (Printf.sprintf "table %s: duplicate key" t.name));
    ignore (Hash_index.remove index (key_of t old));
    Hash_index.replace index new_key rid
  | Some _ | None -> ());
  iter_secondaries t (fun sec ->
      if not (same_at old tuple sec.positions) then begin
        ignore (Bptree.remove sec.tree (sec_entry_key sec old rid));
        Bptree.insert sec.tree (sec_entry_key sec tuple rid) ()
      end)

(* The old record is fetched before the run (a read of the page from
   inside its own exclusive latch would wait on itself); its index entries
   move inside the run, just before the new bytes land. *)
let update_in_place t rid tuple =
  let old = Heap_file.get t.heap rid in
  Heap_file.modify_many t.heap [| rid |] (fun _ img off ->
      Option.iter (fun old -> reindex t rid old tuple) old;
      Tuple.encode_into (schema t) tuple img off)

let rewrite_many t rids f =
  let write =
    match t.sec_order with
    | [] -> f
    | names ->
      let s = schema t in
      let secs = List.map (Hashtbl.find t.secondaries) names in
      (* Each secondary's cells before and after the record's write; an
         entry moves only if they differ. *)
      fun i img off ->
        let olds = List.map (fun sec -> cells_at s img off sec.positions) secs in
        f i img off;
        let rid = rids.(i) in
        List.iter2
          (fun sec old ->
            let cur = cells_at s img off sec.positions in
            if not (List.equal Vnl_relation.Value.equal old cur) then begin
              ignore (Bptree.remove sec.tree (sec_key old rid));
              Bptree.insert sec.tree (sec_key cur rid) ()
            end)
          secs olds
  in
  Heap_file.modify_many t.heap rids write

let delete t rid =
  (match Heap_file.get t.heap rid with
  | Some old ->
    (match t.index with
    | Some index -> ignore (Hash_index.remove index (key_of t old))
    | None -> ());
    sec_remove t old rid
  | None -> ());
  Heap_file.delete t.heap rid

let get t rid = Heap_file.get t.heap rid

let read_by_key t key f =
  match t.index with
  | None -> None
  | Some index -> (
    match Hash_index.find index key with
    | None -> None
    | Some rid -> (
      match Heap_file.read_record t.heap rid f with
      | Some r -> Some (rid, r)
      | None -> None))

let find_by_key t key = read_by_key t key (Tuple.decode_from (schema t))

let probe t ~hash key =
  match t.index with None -> None | Some index -> Hash_index.find_hashed index ~hash key

let scan t f = Heap_file.scan t.heap f

let iter_tuples t f = Heap_file.iter_tuples t.heap f

let fold_pages t ~init ~f = Heap_file.fold_pages t.heap ~init ~f

let fold_raw t ~init ~f = Heap_file.fold_raw t.heap ~init ~f

let to_list t = Heap_file.to_list t.heap

let tuple_count t = Heap_file.tuple_count t.heap

let page_count t = Heap_file.page_count t.heap

let create_index t ~name attrs =
  if attrs = [] then invalid_arg "Table.create_index: empty attribute list";
  Catalog.check_name ~what:"index" name;
  if Hashtbl.mem t.secondaries name then
    invalid_arg (Printf.sprintf "Table.create_index: %S already exists" name);
  let s = schema t in
  let positions =
    List.map
      (fun attr ->
        match Schema.index_of_opt s attr with
        | Some i -> i
        | None -> invalid_arg (Printf.sprintf "Table.create_index: unknown attribute %S" attr))
      attrs
  in
  let sec = { attrs; positions; tree = Bptree.create () } in
  Heap_file.scan t.heap (fun rid tuple -> Bptree.insert sec.tree (sec_entry_key sec tuple rid) ());
  Hashtbl.replace t.secondaries name sec;
  t.sec_order <- t.sec_order @ [ name ];
  t.version <- t.version + 1

let indexes t =
  List.map (fun name -> (name, (Hashtbl.find t.secondaries name).attrs)) t.sec_order

let index_attrs t name =
  match Hashtbl.find_opt t.secondaries name with
  | Some sec -> sec.attrs
  | None -> raise Not_found

let index_lookup t ~name values =
  let sec =
    match Hashtbl.find_opt t.secondaries name with
    | Some sec -> sec
    | None -> raise Not_found
  in
  if List.length values <> List.length sec.positions then
    invalid_arg "Table.index_lookup: arity mismatch";
  let lo = values @ [ Vnl_relation.Value.Int min_int; Vnl_relation.Value.Int min_int ] in
  let hi = values @ [ Vnl_relation.Value.Int max_int; Vnl_relation.Value.Int max_int ] in
  let acc = ref [] in
  Bptree.range sec.tree ~lo ~hi (fun key () ->
      match List.rev key with
      | Vnl_relation.Value.Int slot :: Vnl_relation.Value.Int page :: _ ->
        acc := { Heap_file.page; slot } :: !acc
      | _ -> ());
  List.rev !acc

let index_covering t bound_attrs =
  let covered sec = List.for_all (fun a -> List.mem a bound_attrs) sec.attrs in
  (* Prefer the most selective (longest attribute list) covered index. *)
  List.fold_left
    (fun best name ->
      let sec = Hashtbl.find t.secondaries name in
      if covered sec then
        match best with
        | Some (_, n) when n >= List.length sec.attrs -> best
        | _ -> Some (name, List.length sec.attrs)
      else best)
    None t.sec_order
  |> Option.map fst


let attach pool ~name schema ~pages ~secondary =
  let heap = Heap_file.attach pool schema ~pages in
  let t, secondary = attach_heap pool ~name heap secondary in
  List.iter (fun (iname, attrs) -> create_index t ~name:iname attrs) secondary;
  t
