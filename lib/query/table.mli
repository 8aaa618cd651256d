(** Tables: a heap file plus a unique-key hash index kept in sync.

    The key index ({!Vnl_index.Hash_index}) serves the maintenance
    transaction's per-operation key probes (the conflicting-tuple test of
    Table 2 and the §4.2 cursor selections) and the planner's unique-key
    probes, which reader domains run while the maintainer writes it.
    Relations without key attributes simply have no index and no uniqueness
    enforcement, matching the paper's "tuples that do not have unique keys"
    case.  Secondary indexes are B+-trees ({!Vnl_index.Bptree}): their
    lookups are range scans. *)

type t

exception Unique_violation of string
(** Raised on inserting a duplicate key; message names the table. *)

val create : Vnl_storage.Buffer_pool.t -> name:string -> Vnl_relation.Schema.t -> t

val attach :
  Vnl_storage.Buffer_pool.t ->
  name:string ->
  Vnl_relation.Schema.t ->
  pages:int list ->
  secondary:(string * string list) list ->
  t
(** Re-open a table over existing heap pages after a restart: the unique-key
    index (sized from the tuple count) and the listed secondary indexes are
    rebuilt by scanning. *)

val name : t -> string

val set_name : t -> string -> unit
(** Owned by [Database.rename_table]; call it directly and the catalog map
    and the table disagree about the name. *)

val schema : t -> Vnl_relation.Schema.t

val heap : t -> Vnl_storage.Heap_file.t

val has_key : t -> bool

val version : t -> int
(** Monotone counter bumped by {!create_index}; {!Plan.valid} uses it to
    detect stale access-path choices. *)

val insert : ?check:bool -> t -> Vnl_relation.Tuple.t -> Vnl_storage.Heap_file.rid
(** Raises {!Unique_violation} when the table has a unique key and an equal
    key is already present.  [~check:false] skips the duplicate probe; only
    for callers that just resolved the key against the index themselves and
    found it absent. *)

val insert_many :
  ?check:bool -> t -> Vnl_relation.Tuple.t array -> Vnl_storage.Heap_file.rid array
(** {!insert} each tuple in order, as insert runs
    ({!Vnl_storage.Heap_file.insert_many}): one heap latch, pin and
    exclusive frame latch per page filled, each tuple in the slot its lone
    {!insert} would have taken, and its index entries entered inside the
    run.  [check] as in {!insert}: with [~check:false] the keys must be
    distinct and absent, as in the maintenance paths' fresh inserts.  A
    failure leaves the tuples before it inserted.  The rids align with the
    input. *)

val insert_records :
  t ->
  int ->
  key:(int -> Vnl_relation.Value.t list) ->
  (int -> bytes -> int -> unit) ->
  Vnl_storage.Heap_file.rid array
(** [insert_records t n ~key write] is {!insert_many} [~check:false] of
    [n] records that [write i img off] writes straight into their slots,
    each with its unique key [key i] (which the caller resolved absent, as
    in [~check:false]); each record's secondary entries are read from its
    cells once written. *)

val update_in_place : t -> Vnl_storage.Heap_file.rid -> Vnl_relation.Tuple.t -> unit
(** Overwrite the record in place ({!Vnl_storage.Heap_file.modify_many} of
    one record, encoding the tuple over it).  Index upkeep runs inside the
    run, just before the bytes land: the unique-key entry moves if the key
    values changed (2VNL itself never changes keys, but the engine supports
    it) and a secondary entry moves if its attributes changed; both tests
    compare the positions in place, so an update that keeps them allocates
    no key.  Raises {!Unique_violation} if a moved key is already present,
    and [Invalid_argument] on a free slot or a rejected tuple. *)

val rewrite_many :
  t -> Vnl_storage.Heap_file.rid array -> (int -> bytes -> int -> unit) -> unit
(** [rewrite_many t rids f] rewrites each live record [rids.(i)] on its
    page bytes, as page runs ({!Vnl_storage.Heap_file.modify_many}): pass
    the rids sorted.  [f i img off] writes record [i]'s cells at [off] in
    [img]; it must leave the unique-key cells as they are.  Each
    secondary entry whose cells [f] changed moves inside the run, just
    after the record's write, so a failure leaves every written record's
    entries matching its bytes and the records after it untouched. *)

val delete : t -> Vnl_storage.Heap_file.rid -> unit
(** Physically remove the record and its index entries. *)

val get : t -> Vnl_storage.Heap_file.rid -> Vnl_relation.Tuple.t option

val find_by_key :
  t -> Vnl_relation.Value.t list -> (Vnl_storage.Heap_file.rid * Vnl_relation.Tuple.t) option
(** Index probe; [None] for keyless tables or absent keys. *)

val read_by_key :
  t -> Vnl_relation.Value.t list -> (bytes -> int -> 'a) ->
  (Vnl_storage.Heap_file.rid * 'a) option
(** {!find_by_key} reading the record's bytes with [f] instead of decoding
    it (see {!Vnl_storage.Heap_file.read_record}; [f] must be pure). *)

val probe :
  t -> hash:int -> Vnl_relation.Value.t list -> Vnl_storage.Heap_file.rid option
(** The rid the unique-key index holds for the key, without touching any
    page; [hash] must be the key's {!Vnl_index.Hash_index.Key.hash}.
    [None] for keyless tables or absent keys. *)

val scan : t -> (Vnl_storage.Heap_file.rid -> Vnl_relation.Tuple.t -> unit) -> unit

val iter_tuples : t -> (Vnl_relation.Tuple.t -> unit) -> unit
(** Read-only scan without rids or the per-page snapshot (see
    {!Vnl_storage.Heap_file.iter_tuples}); [f] must not modify the table. *)

val fold_pages :
  t -> init:'a -> f:('a -> page:int -> bytes -> ((int -> int -> unit) -> unit) -> 'a) -> 'a
(** Latch-free pure per-page fold over undecoded records, newest page and
    slot first (see {!Vnl_storage.Heap_file.fold_pages}); [f] must be pure — it may be
    re-run against a torn page image and that attempt discarded. *)

val fold_raw :
  t -> init:'a -> f:('a -> page:int -> slot:int -> bytes -> int -> 'a) -> 'a
(** Latch-free pure fold with each record's page/slot address (see
    {!Vnl_storage.Heap_file.fold_raw}); same purity contract. *)

val to_list : t -> (Vnl_storage.Heap_file.rid * Vnl_relation.Tuple.t) list

val tuple_count : t -> int

val page_count : t -> int

val create_index : t -> name:string -> string list -> unit
(** [create_index t ~name attrs] builds and maintains a secondary
    (non-unique) B+-tree index on the given attributes; existing tuples are
    indexed immediately.  Raises [Invalid_argument] on unknown attributes,
    an empty list, or a duplicate index name. *)

val indexes : t -> (string * string list) list
(** Secondary indexes as (name, attributes), in creation order. *)

val index_attrs : t -> string -> string list
(** Attribute list of the named secondary index, resolved in O(1).
    Raises [Not_found] for unknown index names. *)

val index_lookup :
  t -> name:string -> Vnl_relation.Value.t list -> Vnl_storage.Heap_file.rid list
(** Rids of tuples whose indexed attributes equal the given values, in key
    order.  Raises [Not_found] for unknown index names. *)

val index_covering : t -> string list -> string option
(** Name of a secondary index whose attribute list is a subset of the given
    equality-bound attributes (the planner's lookup), if any. *)
