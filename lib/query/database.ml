module Buffer_pool = Vnl_storage.Buffer_pool
module Disk = Vnl_storage.Disk

type t = {
  pool : Buffer_pool.t;
  catalog : (string, Table.t) Hashtbl.t;
  mutable order : string list;  (** Creation order, newest first. *)
  mutable catalog_pages : int list;
      (** Content pages the on-disk header currently points at. *)
  mutable spare_pages : int list;
      (** The other catalog generation: [save] writes here, then flips the
          header.  Double-buffering makes the catalog update atomic — a
          crash mid-save leaves the header pointing at the untouched old
          generation, never at half-written content. *)
  mutable gens : Catalog.generation list;
      (** Catalog-generation metadata (newest first); empty until the first
          schema evolution.  Mirrored into the serialized catalog so reopen
          can rebuild every retained generation. *)
  mutable durable : (Catalog.generation list * (string * Table.t * int list * int) list) option;
      (** Fingerprint of the catalog the on-disk header names ([None] until
          the first [save]); see [fingerprint]. *)
}

let create ?(page_size = 4096) ?(pool_capacity = 64) () =
  let disk = Disk.create ~page_size () in
  let pool = Buffer_pool.create ~capacity:pool_capacity disk in
  (* Page 0 is the catalog header. *)
  ignore (Buffer_pool.alloc_page pool);
  {
    pool;
    catalog = Hashtbl.create 8;
    order = [];
    catalog_pages = [];
    spare_pages = [];
    gens = [];
    durable = None;
  }

let pool t = t.pool

let create_table t name schema =
  (* Reject names the catalog format cannot round-trip now, not at the
     first [save] — by then the table holds data. *)
  Catalog.check_name ~what:"table" name;
  List.iter
    (fun a -> Catalog.check_name ~what:"attribute" a.Vnl_relation.Schema.name)
    (Vnl_relation.Schema.attributes schema);
  if Hashtbl.mem t.catalog name then
    invalid_arg (Printf.sprintf "Database.create_table: %S already exists" name);
  let table = Table.create t.pool ~name schema in
  Hashtbl.add t.catalog name table;
  t.order <- name :: t.order;
  table

let table t name = Hashtbl.find_opt t.catalog name

(* Schema evolution stages a widened copy under the logical name after
   parking the superseded table under a frozen alias; the rename must keep
   [order] (and so catalog serialization order) stable, or page layout
   on disk would churn on every evolution. *)
let rename_table t old_name new_name =
  Catalog.check_name ~what:"table" new_name;
  if Hashtbl.mem t.catalog new_name then
    invalid_arg (Printf.sprintf "Database.rename_table: %S already exists" new_name);
  match Hashtbl.find_opt t.catalog old_name with
  | None -> invalid_arg (Printf.sprintf "Database.rename_table: no such table %S" old_name)
  | Some tbl ->
    Hashtbl.remove t.catalog old_name;
    Table.set_name tbl new_name;
    Hashtbl.add t.catalog new_name tbl;
    t.order <- List.map (fun n -> if String.equal n old_name then new_name else n) t.order

let generations_meta t = t.gens

(* An equal list keeps the old one, so a rebuild that changes nothing (a
   reopen's [attach_generations]) leaves the catalog fingerprint alone. *)
let set_generations_meta t gens = if gens <> t.gens then t.gens <- gens

let table_exn t name =
  match table t name with
  | Some tbl -> tbl
  | None -> failwith (Printf.sprintf "Database: no such table %S" name)

let drop_table t name =
  Hashtbl.remove t.catalog name;
  t.order <- List.filter (fun n -> not (String.equal n name)) t.order

let tables t = List.rev_map (fun name -> Hashtbl.find t.catalog name) t.order

let io_stats t = Buffer_pool.stats t.pool

let reset_io_stats t = Buffer_pool.reset_stats t.pool

let drop_cache t = Buffer_pool.drop_cache t.pool


(* ---------- persistence ---------- *)

let magic = "VNLDB1"

let disk t = Buffer_pool.disk t.pool

let entries t =
  List.map
    (fun table ->
      {
        Catalog.table = Table.name table;
        schema = Table.schema table;
        pages = Vnl_storage.Heap_file.pages (Table.heap table);
        secondary = Table.indexes table;
      })
    (tables t)

let m_catalog_writes = Vnl_obs.Obs.Registry.counter "catalog.writes"

(* What [Catalog.serialize] reads, by physical identity where the source is
   immutable: the generation metadata, and per table in order its name, the
   table itself (so its schema), its heap's page list (replaced on every
   allocation) and its index DDL version.  Equal fingerprints mean equal
   catalog text; unequal ones may still serialize alike, which costs only a
   redundant write. *)
let fingerprint t =
  ( t.gens,
    List.map
      (fun name ->
        let tbl = Hashtbl.find t.catalog name in
        (name, tbl, Vnl_storage.Heap_file.pages_rev (Table.heap tbl), Table.version tbl))
      t.order )

let same_fingerprint (g, ts) (g', ts') =
  g == g'
  && List.equal
       (fun (n, tbl, p, v) (n', tbl', p', v') ->
         String.equal n n' && tbl == tbl' && p == p' && v = v')
       ts ts'

(* Crash-safe save: the new catalog generation is written to the spare page
   set and flushed {e before} the single-page header flips to it, so the
   on-disk header always points at fully written content.  A crash anywhere
   inside [save] leaves either the old catalog (header not yet flipped) or
   the new one (flip durable) — never a truncated or mixed generation,
   which could otherwise silently mis-parse (a cut "pages 5 12" line reads
   as "pages 5 1").  The first flush also carries every other dirty frame,
   which is exactly the apply -> flush -> catalog-write -> publish ordering
   {!Vnl_core.Recovery} relies on.

   When the fingerprint matches the catalog the header already names,
   there is nothing to write but data: [`Full] still flushes every dirty
   frame (the caller's durability point — the Version page, and pages a
   collection dirtied outside maintenance), [`Catalog_only] nothing. *)
let save ?(mode = `Full) t =
  let now = fingerprint t in
  let unchanged = match t.durable with Some d -> same_fingerprint d now | None -> false in
  if unchanged then begin
    match mode with `Full -> Buffer_pool.flush_all t.pool | `Catalog_only -> ()
  end
  else begin
    Vnl_obs.Obs.Counter.record m_catalog_writes 1;
    let text = Catalog.serialize ~generations:t.gens (entries t) in
    let page_size = Disk.page_size (disk t) in
    let needed = max 1 ((String.length text + page_size - 1) / page_size) in
    while List.length t.spare_pages < needed do
      t.spare_pages <- t.spare_pages @ [ Buffer_pool.alloc_page t.pool ]
    done;
    List.iteri
      (fun i pid ->
        Buffer_pool.with_page_mut t.pool pid (fun img ->
            Bytes.fill img 0 page_size '\000';
            let off = i * page_size in
            if off < String.length text then begin
              let len = min page_size (String.length text - off) in
              Bytes.blit_string text off img 0 len
            end))
      t.spare_pages;
    (* [`Full] doubles as the caller's data-durability point (every dirty
       frame reaches disk before the header flip).  [`Catalog_only] flushes
       just the catalog content pages — the pipelined path has already made
       its partition's data pages durable with a targeted blocking flush and
       must not sweep up other in-flight partitions' half-applied pages. *)
    (match mode with
    | `Full -> Buffer_pool.flush_all t.pool
    | `Catalog_only -> Buffer_pool.flush_pages t.pool t.spare_pages);
    (* Header page 0: magic, content length, content page ids, then the
       retired generation's pages so a reopened database keeps reusing them. *)
    let live = t.spare_pages and retired = t.catalog_pages in
    Buffer_pool.with_page_mut t.pool 0 (fun img ->
        Bytes.fill img 0 page_size '\000';
        let ids pids = String.concat " " (List.map string_of_int pids) in
        let header =
          Printf.sprintf "%s %d %s\nspare %s\n" magic (String.length text) (ids live)
            (ids retired)
        in
        if String.length header > page_size then failwith "Database.save: header overflow";
        Bytes.blit_string header 0 img 0 (String.length header));
    (match mode with
    | `Full -> Buffer_pool.flush_all t.pool
    | `Catalog_only -> Buffer_pool.flush_pages t.pool [ 0 ]);
    t.catalog_pages <- live;
    t.spare_pages <- retired;
    t.durable <- Some now
  end

let reopen ?(pool_capacity = 64) disk0 =
  let pool = Buffer_pool.create ~capacity:pool_capacity disk0 in
  let page_size = Disk.page_size disk0 in
  let header_lines =
    Buffer_pool.with_page pool 0 (fun img ->
        let raw = Bytes.to_string img in
        match String.split_on_char '\n' raw with
        | first :: rest -> (first, rest)
        | [] -> raise (Catalog.Corrupt "missing catalog header"))
  in
  let length, pages =
    match String.split_on_char ' ' (fst header_lines) with
    | m :: len :: pids when m = magic -> (
      match int_of_string_opt len with
      | Some l -> (l, List.filter_map int_of_string_opt pids)
      | None -> raise (Catalog.Corrupt "bad catalog length"))
    | _ -> raise (Catalog.Corrupt "bad catalog magic")
  in
  let spare =
    match snd header_lines with
    | line :: _ when String.length line >= 5 && String.sub line 0 5 = "spare" ->
      List.filter_map int_of_string_opt
        (String.split_on_char ' ' (String.sub line 5 (String.length line - 5)))
    | _ -> []
  in
  let buf = Buffer.create length in
  List.iter
    (fun pid ->
      Buffer_pool.with_page pool pid (fun img ->
          let remaining = length - Buffer.length buf in
          Buffer.add_subbytes buf img 0 (min page_size remaining)))
    pages;
  let entries, gens = Catalog.parse_full (Buffer.contents buf) in
  let t =
    {
      pool;
      catalog = Hashtbl.create 8;
      order = [];
      catalog_pages = pages;
      spare_pages = spare;
      gens;
      durable = None;
    }
  in
  List.iter
    (fun e ->
      let table =
        Table.attach pool ~name:e.Catalog.table e.Catalog.schema ~pages:e.Catalog.pages
          ~secondary:e.Catalog.secondary
      in
      Hashtbl.add t.catalog e.Catalog.table table;
      t.order <- e.Catalog.table :: t.order)
    entries;
  t.durable <- Some (fingerprint t);
  t
