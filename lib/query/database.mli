(** A database: one buffer pool and a catalog of named tables. *)

type t

val create : ?page_size:int -> ?pool_capacity:int -> unit -> t
(** Fresh database over a new simulated disk.  [page_size] defaults to 4096
    bytes, [pool_capacity] to 64 frames. *)

val pool : t -> Vnl_storage.Buffer_pool.t

val create_table : t -> string -> Vnl_relation.Schema.t -> Table.t
(** Raises [Invalid_argument] if the name is taken. *)

val table : t -> string -> Table.t option

val table_exn : t -> string -> Table.t
(** Raises [Not_found] with the table name in a [Failure] message. *)

val drop_table : t -> string -> unit

val rename_table : t -> string -> string -> unit
(** [rename_table t old new_] re-binds a table under [new_], keeping its
    creation-order position (catalog page layout is stable across schema
    evolutions).  Raises [Invalid_argument] when [old] is absent, [new_] is
    taken, or [new_] fails {!Catalog.valid_name}. *)

val generations_meta : t -> Catalog.generation list
(** Catalog-generation metadata, newest first; [[]] until the first schema
    evolution is staged. *)

val set_generations_meta : t -> Catalog.generation list -> unit
(** Replace the generation metadata.  Serialized by the next {!save}; owned
    by the evolution machinery in [Vnl_core.Twovnl].  A list equal to the
    current one is ignored, so it does not count as a catalog change. *)

val tables : t -> Table.t list
(** In creation order. *)

val io_stats : t -> Vnl_storage.Buffer_pool.stats

val reset_io_stats : t -> unit

val drop_cache : t -> unit
(** Flush and empty the buffer pool so the next accesses are cold; used by
    the I/O experiments. *)

val save : ?mode:[ `Full | `Catalog_only ] -> t -> unit
(** Persist the catalog (schemas, heap pages, index definitions) into
    reserved catalog pages, making the disk image self-describing.  The
    update is crash-atomic: the new catalog generation is written to a
    spare page set and flushed before the single-page header flips to it,
    so a crash mid-save leaves either the old or the new catalog on disk,
    never a mixture (see {!Vnl_core.Recovery}).

    The catalog is written only if it changed since the last save or
    {!reopen}, judged by a conservative fingerprint (tables in order, their
    heap page lists and index DDL, generation metadata); otherwise only the
    data part below runs.  [`Full] (the default) flushes {e every} dirty page,
    doubling as the caller's data-durability point.  [`Catalog_only]
    flushes only the catalog content pages and the header (nothing, when
    the catalog is unchanged): the pipelined maintenance path uses it after
    targeted data flushes, when a full sweep would entangle other
    partitions' in-flight pages. *)

val disk : t -> Vnl_storage.Disk.t

val reopen : ?pool_capacity:int -> Vnl_storage.Disk.t -> t
(** Re-open a database from a disk image produced by {!save}: tables are
    re-attached to their pages and all indexes rebuilt by scanning.  Raises
    {!Catalog.Corrupt} if the image has no valid catalog. *)
