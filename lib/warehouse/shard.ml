module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Twovnl = Vnl_core.Twovnl
module Domain_pool = Vnl_util.Domain_pool

module Shard_map = struct
  type t = { shards : int; route_fn : Tuple.t -> int }

  let create ~shards ~route =
    if shards < 1 then invalid_arg "Shard_map.create: need at least one shard";
    { shards; route_fn = route }

  let by_attrs ~shards ~source ~attrs =
    if attrs = [] then invalid_arg "Shard_map.by_attrs: empty shard key";
    let positions =
      List.map
        (fun attr ->
          match Schema.index_of_opt source attr with
          | Some i -> i
          | None ->
            invalid_arg (Printf.sprintf "Shard_map.by_attrs: unknown attribute %S" attr))
        attrs
    in
    create ~shards ~route:(fun row ->
        (* The polymorphic hash is deterministic over Value.t, so equal
           shard keys land on equal shards across runs and processes. *)
        Hashtbl.hash (List.map (Tuple.get row) positions) mod shards)

  let shards t = t.shards

  let route t row =
    let s = t.route_fn row in
    if s < 0 || s >= t.shards then
      invalid_arg (Printf.sprintf "Shard_map.route: shard %d outside 0..%d" s (t.shards - 1));
    s

  let partition_changes t changes =
    (* Per-shard accumulators in reverse order, flipped once at the end —
       arrival order within a shard is what the maintenance queue
       preserves. *)
    let slices = Array.make t.shards [] in
    let push s change = slices.(s) <- change :: slices.(s) in
    List.iter
      (fun change ->
        match change with
        | Delta.Insert row | Delta.Delete row -> push (route t row) change
        | Delta.Update (old_row, new_row) ->
          let os = route t old_row and ns = route t new_row in
          if os = ns then push os change
          else begin
            push os (Delta.Delete old_row);
            push ns (Delta.Insert new_row)
          end)
      changes;
    Array.map List.rev slices
end

module Sharded = struct
  type t = {
    map : Shard_map.t;
    warehouses : Warehouse.t array;
    mutable templates : (string * View_def.t) list;
        (** By template name, in order; grows when {!evolve} adds a view. *)
  }

  let create ?n ?page_size ?pool_capacity ~shard_map defs =
    if defs = [] then invalid_arg "Sharded.create: no view templates";
    let warehouses =
      Array.init (Shard_map.shards shard_map) (fun s ->
          Warehouse.create ?n ?page_size ?pool_capacity
            (List.map (fun def -> View_def.instantiate def ~shard:s) defs))
    in
    { map = shard_map; warehouses; templates = List.map (fun d -> (View_def.name d, d)) defs }

  let shard_map t = t.map

  let shard_count t = Array.length t.warehouses

  let shard t s = t.warehouses.(s)

  let templates t = List.map snd t.templates

  let template t name =
    match List.assoc_opt name t.templates with
    | Some def -> def
    | None -> failwith (Printf.sprintf "Sharded: unknown view template %S" name)

  let instance name ~shard = View_def.instance_name name ~shard

  let queue_changes t ~view changes =
    ignore (template t view);
    let slices = Shard_map.partition_changes t.map changes in
    Array.iteri
      (fun s slice ->
        if slice <> [] then
          Warehouse.queue_changes t.warehouses.(s) ~view:(instance view ~shard:s) slice)
      slices

  let pending_shard t ~shard ~view =
    Warehouse.pending t.warehouses.(shard) ~view:(instance view ~shard)

  let pending t ~view =
    let total = ref 0 in
    Array.iteri (fun s _ -> total := !total + pending_shard t ~shard:s ~view) t.warehouses;
    !total

  let refresh_shard ?workers ?on_phase ?run t ~shard =
    Warehouse.refresh ?workers ?on_phase ?run t.warehouses.(shard)

  let refresh_all ?(domains = 1) ?(workers = 1) t =
    if domains < 1 then invalid_arg "Sharded.refresh_all: need at least one domain";
    (* The pipeline's worker pool is process-wide and one multi-stripe
       round owns it at a time: cross-shard parallelism composes with
       one-stripe rounds only. *)
    if domains > 1 && workers > 1 then
      invalid_arg "Sharded.refresh_all: domains > 1 needs workers = 1";
    let shards = shard_count t in
    let outcomes = Array.make shards [] in
    if domains = 1 || shards = 1 then
      Array.iteri (fun s _ -> outcomes.(s) <- refresh_shard ~workers t ~shard:s) t.warehouses
    else begin
      (* Shards share no state (each warehouse owns its database, pool,
         and version relation), so round-robin them across domains. *)
      let d = min domains shards in
      ignore
        (Domain_pool.parallel ~domains:d (fun rank ->
             let s = ref rank in
             while !s < shards do
               outcomes.(!s) <- refresh_shard t ~shard:!s;
               s := !s + d
             done))
    end;
    outcomes

  (* Evolve every shard: the same logical DDL maps to each shard's view
     instances (per-shard evolution transactions — shards share no state,
     so there is no cross-shard atomicity to coordinate; a failure leaves
     a prefix of shards evolved, each internally pre-or-post).  Union
     reads ({!read_union}) keep merging on the template's original target
     schema: added columns are per-shard payload the union projects away. *)
  let evolve t evolutions =
    Array.iteri
      (fun s wh ->
        let map_ev = function
          | Warehouse.Add_column { view; attr; default } ->
            ignore (template t view);
            Warehouse.Add_column { view = instance view ~shard:s; attr; default }
          | Warehouse.Add_view { def; n } ->
            Warehouse.Add_view { def = View_def.instantiate def ~shard:s; n }
          | Warehouse.Add_index { view; index; attrs } ->
            ignore (template t view);
            Warehouse.Add_index { view = instance view ~shard:s; index; attrs }
        in
        Warehouse.evolve wh (List.map map_ev evolutions))
      t.warehouses;
    List.iter
      (function
        | Warehouse.Add_view { def; _ } ->
          t.templates <- t.templates @ [ (View_def.name def, def) ]
        | Warehouse.Add_column _ | Warehouse.Add_index _ -> ())
      evolutions

  let collect_garbage t =
    Array.fold_left (fun acc wh -> acc + Warehouse.collect_garbage wh) 0 t.warehouses

  type session = Twovnl.Session.s array

  let vnls t = Array.to_list (Array.map Warehouse.vnl t.warehouses)

  let begin_session t = Array.of_list (Twovnl.Session.begin_vector (vnls t))

  let end_session t sessions =
    Twovnl.Session.end_vector (vnls t) (Array.to_list sessions)

  let session_valid t sessions =
    let valid = ref true in
    Array.iteri
      (fun s session ->
        if not (Twovnl.Session.is_valid (Warehouse.vnl t.warehouses.(s)) session) then
          valid := false)
      sessions;
    !valid

  let vn_vector sessions = Twovnl.Session.vn_vector (Array.to_list sessions)

  let read_shard_view t sessions ~shard ~view =
    Warehouse.read_view t.warehouses.(shard) sessions.(shard) (instance view ~shard)

  let read_union t sessions ~view =
    let def = template t view in
    Summary.merge_union def
      (List.init (shard_count t) (fun s -> read_shard_view t sessions ~shard:s ~view))

  let expected_union t ~view =
    let def = template t view in
    Summary.merge_union def
      (List.init (shard_count t) (fun s ->
           Warehouse.expected_view t.warehouses.(s) (instance view ~shard:s)))
end
