module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Table = Vnl_query.Table

type partition = { ops : Batch.op list; positions : int array; op_count : int }

(* Union-find over the at-most-[max_parts] seed buckets; path halving is
   plenty at this size. *)
let rec find uf i = if uf.(i) = i then i else begin uf.(i) <- uf.(uf.(i)); find uf uf.(i) end

let union uf a b =
  let ra = find uf a and rb = find uf b in
  if ra <> rb then uf.(max ra rb) <- min ra rb

let key_of_op base = function
  | Batch.Insert t -> Tuple.key_of base t
  | Batch.Update (key, _) | Batch.Delete key -> key

module Key_tbl = Vnl_index.Hash_index.Key_tbl

let partition ext table ~max_parts ops =
  if ops = [] then []
  else if max_parts <= 1 || not (Table.has_key table) then begin
    let op_count = List.length ops in
    [ { ops; positions = Array.init op_count Fun.id; op_count } ]
  end
  else if Table.indexes table = [] then begin
    (* No secondary indexes: the unique key is the only dependency, so the
       seed buckets are final — one pass assigns each key's operations to
       its bucket, in order, with no union-find and no re-filtering. *)
    let base = Schema_ext.base ext in
    let bucket_of = Key_tbl.create (max 64 (List.length ops)) in
    let buckets = Array.make max_parts [] in
    let bucket_positions = Array.make max_parts [] in
    let op_counts = Array.make max_parts 0 in
    let first_seen = ref [] in
    List.iteri
      (fun i op ->
        let key = key_of_op base op in
        let b =
          match Key_tbl.find_opt bucket_of key with
          | Some b -> b
          | None ->
            let b = (Hashtbl.hash key land max_int) mod max_parts in
            Key_tbl.add bucket_of key b;
            b
        in
        if op_counts.(b) = 0 then first_seen := b :: !first_seen;
        buckets.(b) <- op :: buckets.(b);
        bucket_positions.(b) <- i :: bucket_positions.(b);
        op_counts.(b) <- op_counts.(b) + 1)
      ops;
    List.rev_map
      (fun b ->
        {
          ops = List.rev buckets.(b);
          positions = Array.of_list (List.rev bucket_positions.(b));
          op_count = op_counts.(b);
        })
      !first_seen
  end
  else begin
    let base = Schema_ext.base ext in
    let secondaries = Table.indexes table in
    (* Which secondary indexes does an operation touch?  Structural ops
       (insert, delete) enter/remove the tuple from every tree; an update
       touches exactly the trees indexing an attribute it assigns.  An
       index over a non-base (version bookkeeping) attribute is rewritten
       by every maintenance op, so it behaves like a structural touch. *)
    let always_touched, by_attr =
      List.fold_left
        (fun (always, by_attr) (iname, attrs) ->
          if List.exists (fun a -> not (Schema.mem base a)) attrs then (iname :: always, by_attr)
          else (always, List.map (fun a -> (a, iname)) attrs @ by_attr))
        ([], []) secondaries
    in
    let footprint op =
      match op with
      | Batch.Insert _ | Batch.Delete _ -> List.map fst secondaries
      | Batch.Update (_, assignments) ->
        let assigned = List.map (fun (j, _) -> (Schema.attribute base j).Schema.name) assignments in
        always_touched
        @ List.filter_map
            (fun (attr, iname) -> if List.mem attr assigned then Some iname else None)
            by_attr
    in
    (* Seed bucket: a deterministic hash of the unique key, so a key's
       every operation lands in one bucket and the per-key order survives
       the stable partition filter below. *)
    let bucket_of = Key_tbl.create (max 64 (List.length ops)) in
    let bucket key =
      match Key_tbl.find_opt bucket_of key with
      | Some b -> b
      | None ->
        let b = (Hashtbl.hash key land max_int) mod max_parts in
        Key_tbl.add bucket_of key b;
        b
    in
    let uf = Array.init max_parts Fun.id in
    (* Dependency analysis: buckets whose operations touch the same
       secondary index must not apply concurrently — union them.  The
       designated owner of each index is the first bucket seen touching
       it. *)
    let owner : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let tagged =
      List.mapi
        (fun i op ->
          let b = bucket (key_of_op base op) in
          (if secondaries <> [] then
             List.iter
               (fun iname ->
                 match Hashtbl.find_opt owner iname with
                 | Some b0 -> union uf b b0
                 | None -> Hashtbl.add owner iname b)
               (footprint op));
          (b, i, op))
        ops
    in
    (* Emit partitions in order of first appearance, each a stable filter
       of the original operation list — so a forced single partition is the
       original batch verbatim, and per-key operation order is preserved
       always. *)
    let roots = ref [] in
    List.iter
      (fun (b, _, _) ->
        let r = find uf b in
        if not (List.mem r !roots) then roots := r :: !roots)
      tagged;
    let roots = List.rev !roots in
    List.map
      (fun r ->
        let mine = List.filter (fun (b, _, _) -> find uf b = r) tagged in
        let ops = List.map (fun (_, _, op) -> op) mine in
        {
          ops;
          positions = Array.of_list (List.map (fun (_, i, _) -> i) mine);
          op_count = List.length ops;
        })
      roots
  end
