module Schema = Vnl_relation.Schema
module Table = Vnl_query.Table

type partition = { changes : Batch.change list; op_count : int }

(* Union-find over the at-most-[max_parts] seed buckets; path halving is
   plenty at this size. *)
let rec find uf i = if uf.(i) = i then i else begin uf.(i) <- uf.(uf.(i)); find uf uf.(i) end

let union uf a b =
  let ra = find uf a and rb = find uf b in
  if ra <> rb then uf.(max ra rb) <- min ra rb

(* A key's seed bucket, from the unique index's own key hash: equal keys
   ([Int n] and [Float (float n)] included) always share a bucket. *)
let bucket_of max_parts (c : Batch.change) = Vnl_index.Hash_index.Key.hash c.key mod max_parts

let partition ext table ~max_parts changes =
  if changes = [] then []
  else if max_parts <= 1 || not (Table.has_key table) then
    [ { changes; op_count = List.length changes } ]
  else if Table.indexes table = [] then begin
    (* No secondary indexes: the unique key is the only dependency, so the
       seed buckets are final — one pass assigns each key's change to its
       bucket, in order, with no union-find and no re-filtering. *)
    let buckets = Array.make max_parts [] in
    let op_counts = Array.make max_parts 0 in
    let first_seen = ref [] in
    List.iter
      (fun (c : Batch.change) ->
        let b = bucket_of max_parts c in
        if op_counts.(b) = 0 then first_seen := b :: !first_seen;
        buckets.(b) <- c :: buckets.(b);
        op_counts.(b) <- op_counts.(b) + 1)
      changes;
    List.rev_map (fun b -> { changes = List.rev buckets.(b); op_count = op_counts.(b) }) !first_seen
  end
  else begin
    let base = Schema_ext.base ext in
    let secondaries = Table.indexes table in
    (* Which secondary indexes does a change touch?  The probe decides: a
       present key is written in place, which leaves its key cells alone
       but may rewrite any other cell (the aggregates, the version
       bookkeeping, a re-insert's base values), so it touches every index
       over a non-key attribute; an absent key is a fresh insert, which
       enters every index. *)
    let is_key a =
      match Schema.index_of_opt base a with
      | Some j -> (Schema.attribute base j).Schema.key
      | None -> false
    in
    let all = List.map fst secondaries in
    let in_place =
      List.filter_map
        (fun (iname, attrs) -> if List.for_all is_key attrs then None else Some iname)
        secondaries
    in
    let footprint (c : Batch.change) = if Option.is_some c.rid then in_place else all in
    (* Seed bucket: a deterministic hash of the unique key, so a key's
       change lands in one bucket and the input order survives the stable
       partition filter below. *)
    let uf = Array.init max_parts Fun.id in
    (* Dependency analysis: buckets whose changes touch the same secondary
       index must not apply concurrently — union them.  The designated
       owner of each index is the first bucket seen touching it. *)
    let owner : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let tagged =
      List.map
        (fun (c : Batch.change) ->
          let b = bucket_of max_parts c in
          List.iter
            (fun iname ->
              match Hashtbl.find_opt owner iname with
              | Some b0 -> union uf b b0
              | None -> Hashtbl.add owner iname b)
            (footprint c);
          (b, c))
        changes
    in
    (* Emit partitions in order of first appearance, each a stable filter
       of the input — so a forced single partition is the input verbatim. *)
    let roots = ref [] in
    List.iter
      (fun (b, _) ->
        let r = find uf b in
        if not (List.mem r !roots) then roots := r :: !roots)
      tagged;
    List.rev_map
      (fun r ->
        let changes = List.filter_map (fun (b, c) -> if find uf b = r then Some c else None) tagged in
        { changes; op_count = List.length changes })
      !roots
  end
