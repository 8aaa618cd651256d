(** The 2VNL warehouse facade.

    Ties together the Version relation, schema extension, reader sessions,
    and the maintenance transaction over one database.  There is one
    maintenance transaction type, {!Txn}: it reserves [count] consecutive
    VNs at begin (one by default; a pipelined refresh reserves one per
    stripe), publishes them strictly in order, and aborts by the §7
    no-log revert of every tuple stamped above the last published VN.  A
    typical lifecycle:

    {v
  let wh = Twovnl.init db in
  let _h = Twovnl.register_table wh ~name:"DailySales" daily_sales_schema in
  Twovnl.load_initial wh "DailySales" initial_rows;
  (* readers *)
  let s = Twovnl.Session.begin_ wh in
  let result = Twovnl.Session.query wh s "SELECT ... FROM DailySales ..." in
  (* concurrent maintenance *)
  let m = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m "UPDATE DailySales SET ... WHERE ...");
  Twovnl.Txn.commit m
    v} *)

type t

type handle
(** A registered, schema-extended relation. *)

exception Expired of { session_vn : int; current_vn : int }
(** Raised when a reader operation is attempted on an expired session; the
    reader should begin a new session (§2.1). *)

val init : Vnl_query.Database.t -> t
(** Install the Version relation into [db] and return the facade. *)

val attach : Vnl_query.Database.t -> t
(** Re-attach to a reopened database (see {!Vnl_query.Database.reopen}):
    finds the existing Version relation instead of installing one.  Follow
    with {!attach_table} for each 2VNL relation — or {!attach_generations}
    when the catalog carries generation metadata — and {!recover} to
    complete §7-style no-log crash recovery. *)

val attach_generations : t -> unit
(** Rebuild the versioned catalog of a reopened multi-generation database
    from its persisted generation metadata.  The durable Version page
    arbitrates: a staged generation whose activation VN exceeds the stored
    currentVN died before its publish — its private tables are dropped and
    its freeze-renames undone, so the database reopens to exactly the
    pre-evolution catalog.  No-op when the catalog has no generation
    metadata (use {!attach_table} then).  Must run before {!recover}. *)

val database : t -> Vnl_query.Database.t

val version_state : t -> Version_state.t

val current_vn : t -> int

val register_table : t -> ?n:int -> name:string -> Vnl_relation.Schema.t -> handle
(** Create table [name] in the database with the nVNL-extended schema
    (default n = 2). *)

val attach_table : t -> ?n:int -> name:string -> Vnl_relation.Schema.t -> handle
(** Register an {e existing} table (recovered from disk) as the nVNL
    extension of the given base schema.  Raises [Invalid_argument] if the
    stored schema does not equal the extension of [base] with this [n]. *)

val recover : t -> int
(** No-log crash recovery: if the Version relation says maintenance work
    was outstanding at the crash, revert every tuple stamped {e above} the
    stored currentVN (the last published VN) from the tuples' own
    pre-update versions (no log consulted) and clear the flag; returns the
    number of tuples reverted.  This is {!Txn.abort}'s revert: for a
    transaction of one VN the only such stamp is currentVN + 1; for an
    interrupted transaction of several VNs (a pipelined round) the
    unpublished ones are reverted and the published prefix survives.
    Tuples whose slot-1 operation is insert are treated as fresh inserts
    and physically removed — correct for every live session, see
    DESIGN.md §6. *)

val handle : t -> string -> handle option

val handle_exn : t -> string -> handle

val handles : t -> handle list

val handle_name : handle -> string

val ext : handle -> Schema_ext.t

val table : handle -> Vnl_query.Table.t

val lookup : t -> string -> Schema_ext.t option
(** The registry function the {!Rewrite} layer consumes.  Resolves against
    the head (newest) catalog generation, as do {!handle}, {!handle_exn},
    and {!handles}; sessions resolve against their own pinned generation
    instead. *)

val min_n : t -> int
(** The smallest version count [n] among the head generation's tables (2
    when none is registered): a transaction of [count] VNs keeps a session
    opened at its begin valid to its end only when [count <= min_n - 1]. *)

val catalog_generation : t -> int
(** Index of the head (newest) catalog generation; 0 until the first
    schema evolution commits. *)

val reader_plan_bound : int
(** Reader plans one catalog generation caches: 256 statement shapes (see
    {!Session.query}).  A miss that finds the cache full evicts the shape
    cached longest ago and counts [twovnl.reader_plan_evictions]. *)

val reader_plan_count : t -> int
(** Statement shapes the head generation's reader plan cache holds; never
    above {!reader_plan_bound}. *)

val pad_op : handle -> Batch.op -> Batch.op
(** Pad a short {!Batch.Insert} tuple — built against a pre-evolution base
    schema — with the trailing added-column defaults.  Identity on every
    other operation, and when the handle has no added columns. *)

val load_initial : t -> string -> Vnl_relation.Tuple.t list -> unit
(** Bulk-load base tuples as of the current version (outside any
    maintenance transaction; used for initial warehouse population). *)

val min_session_vn : t -> int
(** Smallest sessionVN among active sessions, or [current_vn] when none —
    the garbage-collection horizon. *)

val collect_garbage : t -> int
(** Run {!Gc.collect} over every registered table at the current horizon. *)

module Session : sig
  type s

  val begin_ : t -> s
  (** Snapshot [currentVN] as the session's version (§3). *)

  val vn : s -> int

  val id : s -> int

  val generation : t -> s -> int
  (** The catalog generation pinned by the session's VN: the session
      resolves every name, schema, and cached plan against it, so a
      session spanning a schema-evolution commit keeps its old schema
      view for its whole lifetime. *)

  val is_valid : t -> s -> bool
  (** The global expiry check, generalized per §5: valid while the session
      has overlapped at most n - 1 maintenance transactions (n taken as the
      smallest version count among registered tables; the paper's §4.1
      condition when n = 2). *)

  val validity : t -> s -> [ `Valid of int | `Expired of int * int ]
  (** Non-raising probe of the same check, for servers that must {e push}
      expiry to remote readers instead of waiting for the next query to
      raise: [`Valid slack] is the number of further maintenance commits
      the session survives (0 = expires at the next publish), [`Expired
      (session_vn, current_vn)] carries the payload of the {!Expired}
      exception.  Does not count as an expiry observation in the metrics —
      the caller decides whether the session is being retired. *)

  val end_ : t -> s -> unit

  val query :
    ?params:(string * Vnl_relation.Value.t) list ->
    t -> s -> string -> Vnl_query.Plan.result
  (** Rewrite (per §4.1, generalized to any n) and execute a SELECT over
      base-schema names with [:sessionVN] bound; [params] supplies
      additional named parameters.  Statements are cached by shape
      ({!Vnl_sql.Shape}): texts differing only in WHERE-clause literals —
      or in the values of [params] — share one plan, parsed, rewritten and
      compiled once per shape and catalog generation ({!Vnl_query.Plan}),
      with the literals bound as parameters at execution, typed as the
      parser types them.  A point probe on the whole key still plans as a
      unique-key probe.  Each generation caches at most
      {!reader_plan_bound} shapes.  Queries matching the §4.1 pattern are
      answered by engine-level extraction when the rewrite would full-scan
      anyway.  A text the lexer or parser rejects raises the same error as
      {!Vnl_sql.Parser.parse_select}.  Raises {!Expired} if the session is
      no longer valid. *)

  val read_table : t -> s -> string -> Vnl_relation.Tuple.t list
  (** Engine-level extraction (works for any n): all base tuples visible at
      the session's version.  Raises {!Expired} on per-tuple expiry
      detection. *)
end

module Txn : sig
  type m
  (** One maintenance transaction, owning [count] consecutive VNs
      [currentVN + 1 .. currentVN + count] from begin to its last publish.

      - {b Publish order.}  {!publish} publishes the VNs one at a time,
        strictly in order; each publish is one maintenance commit (Version
        update, epoch advance, [twovnl.maintenance_commits],
        [twovnl.current_vn]).  The last publish finishes the transaction,
        so every prefix of a multi-VN transaction is a committed state.
      - {b Session validity.}  While the transaction runs, the Version
        state's outstanding count is [count - published], and sessions
        are charged for it, so with n >= count + 1 a session opened at
        begin survives the whole transaction.
      - {b DDL} ({!add_column}, {!add_table}, {!add_index}) is allowed
        only when [count = 1]: the staged catalog generation activates
        with the transaction's one publish.
      - {b Over-delete record.}  Inserts over logically deleted keys are
        recorded by rid alone, in one mutex-guarded set shared by every VN
        and every worker domain.  A rid names one record across the whole
        database: {!Vnl_storage.Disk.alloc} never reuses a page and
        {!Vnl_query.Database.drop_table} frees none, so a staged
        replacement table's rids never collide with the original's. *)

  val begin_ : ?count:int -> t -> m
  (** Start the maintenance transaction, reserving [count] (default 1)
      consecutive VNs.  Raises [Invalid_argument] if one is active or
      [count < 1].  Crash safety needs the raised maintenance flag durable
      (a catalog save) before any tuple is mutated, as
      {!Recovery.run_maintenance} and {!Pipeline} do. *)

  val vn : m -> int
  (** The next VN to publish, which the DML entry points below stamp: the
      transaction's only VN when [count = 1], the last once every VN is
      published. *)

  val stats : m -> Maintenance.stats

  val record_over_delete : m -> Vnl_storage.Heap_file.rid -> unit
  (** Record an insert over a logically deleted record, for the no-log
      rollback (thread-safe).  The DML entry points record their own; the
      refresh's page runs ({!Batch.apply_in_place}) are passed this. *)

  val was_insert_over_delete : m -> Vnl_storage.Heap_file.rid -> bool

  val sql : m -> string -> int
  (** Execute a base-schema DML statement via the §4.2 cursor rewrite;
      returns logical operations applied. *)

  val insert : m -> table:string -> Vnl_relation.Value.t list -> unit

  val update_by_key :
    m ->
    table:string ->
    key:Vnl_relation.Value.t list ->
    set:(string * Vnl_relation.Value.t) list ->
    bool
  (** Update the live tuple with this key; [false] when absent or
      logically deleted. *)

  val delete_by_key : m -> table:string -> key:Vnl_relation.Value.t list -> bool

  val apply_batch : m -> table:string -> Batch.op list -> Batch.outcome
  (** Apply a batch of logical operations through the refresh's executor
      ({!Batch.apply}): the whole batch is validated first (one probe of
      slot 1's stamp per key; a rejected batch raises before any write),
      then each key's operations run in order on its record's page bytes,
      one physical action per key, page run by page run in ascending
      (page, slot) order, with fresh keys as insert runs.  Reader-visible
      results and table bytes are the same as issuing the operations one
      by one (see {!Batch} for the two documented exceptions).
      Over-delete bookkeeping is shared with the per-op entry points, so
      mixing both in one transaction is sound. *)

  val apply_changes :
    m -> table:string -> (Vnl_query.Table.t -> Batch.change list) -> Maintenance.stats
  (** Run the changes [plan] builds against the transaction's table
      (probing rids there) through the same executor ({!Batch.run}, row 2
      allowed), with short inserts padded as in a refresh; returns this
      statement's counts, which the transaction's {!stats} also receive.
      Nothing validates the changes first: a failure leaves the records
      before it written, and {!abort} reverts them. *)

  (** {2 Online schema evolution}

      DDL rides the maintenance transaction: each call stages a pending
      catalog generation (replacement tables are private copies; the
      superseded tables are parked under frozen aliases and keep serving
      every older generation), mirrors it into the database's generation
      metadata so the refresh ladder's data-flush serializes it, and
      {!commit} activates it atomically with the version publish.
      In-flight sessions keep resolving their pinned generation; sessions
      begun after the publish see the new catalog.  {!abort} — or crash
      recovery from any point before the publish — restores exactly the
      pre-evolution catalog.  Each call raises [Invalid_argument] on a
      transaction of more than one VN. *)

  val add_column :
    m ->
    table:string ->
    Vnl_relation.Schema.attribute ->
    default:Vnl_relation.Value.t ->
    unit
  (** [ALTER TABLE table ADD COLUMN attr DEFAULT default]: the pending
      generation's table appends the column, existing rows take the
      default.  Raises [Invalid_argument] for a key column or a default
      not matching the column's dtype. *)

  val add_table : m -> ?n:int -> name:string -> Vnl_relation.Schema.t -> unit
  (** [CREATE VIEW]: register a fresh nVNL-extended table in the pending
      generation (empty; populate through this transaction's DML). *)

  val add_index : m -> table:string -> index:string -> string list -> unit
  (** [CREATE INDEX index ON table (attrs)]: built on the pending
      generation's private copy, so a crash before the publish reopens
      without it. *)

  val publish : m -> unit
  (** Publish the next VN ({!vn}).  The last publish finishes the
      transaction and first activates any staged catalog generation.
      Raises [Invalid_argument] once the transaction is finished. *)

  val commit : m -> unit
  (** Publish the last VN (Version relation update, §4); any staged
      catalog generation activates with it.  Raises [Invalid_argument]
      while an earlier VN is unpublished. *)

  val abort : m -> int
  (** No-log rollback (§7): unstage any DDL, then revert every tuple
      stamped above the last published VN and clear the outstanding
      count; the published prefix stays committed.  Returns the number of
      tuples reverted. *)
end
