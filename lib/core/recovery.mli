(** Crash-safe maintenance and restart-time recovery (§7).

    2VNL's durability claim is that maintenance needs no before-image log:
    every touched tuple still carries its pre-update version in its own
    slots, so a crash mid-maintenance is repaired from the surviving disk
    image alone.  The claim holds only under a write-ordering discipline,
    implemented by {!run_maintenance}:

    + the maintenance flag ([maintenanceActive]) is durable before any
      mutation of the transaction can reach disk;
    + all mutated data pages and the catalog (naming any newly allocated
      pages) are durable before
    + the commit publish ([currentVN := vn], flag cleared) is written.

    Every crash point then leaves the disk in one of three states — clean
    pre-transaction, flagged in-maintenance, clean post-transaction — and
    {!reopen} maps the middle one back to pre-transaction with the §7
    no-log repair.  Torn pages (detected by the disk's checksums) raise
    {!Vnl_storage.Disk.Corrupt_page} instead of being silently decoded. *)

type outcome = {
  interrupted : bool;
      (** The on-disk Version relation said a maintenance transaction was in
          flight. *)
  reverted : int;  (** Tuples restored to their pre-update versions. *)
}

val run_maintenance :
  Vnl_query.Database.t -> Twovnl.t -> (Twovnl.Txn.m -> 'a) -> 'a
(** [run_maintenance db vnl f] runs [f] as one maintenance transaction
    under the crash-safe ordering above: begin and flush the flag, apply,
    flush data, write the catalog, commit, flush the publish.

    An exception raised before the publish aborts the transaction
    ({!Twovnl.Txn.abort}: the §7 no-log revert, which also unstages any
    DDL), makes the repair durable, and re-raises — the warehouse is back
    in its pre-state, with no maintenance left active, and accepts the
    next transaction.  {!Vnl_storage.Disk.Crash} is the exception: it
    propagates untouched, with the disk left for {!reopen} to repair.  An
    abort that itself fails is handled as in {!abort_subordinate}. *)

val abort_subordinate :
  ?db:Vnl_query.Database.t -> context:string -> (unit -> int) -> unit
(** [abort_subordinate ?db ~context abort] runs [abort] (then
    [Database.save db], when given, to make the repair durable) on behalf
    of a primary failure the caller is about to re-raise.  The abort's own
    failure stays subordinate to the primary one: it is logged, naming
    [context], and counted ([maintenance.abort_failures]) — except
    asynchronous fatals ([Out_of_memory], [Stack_overflow]), which
    propagate and take precedence. *)

val reopen :
  ?pool_capacity:int ->
  ?n:int ->
  Vnl_storage.Disk.t ->
  tables:(string * Vnl_relation.Schema.t) list ->
  Twovnl.t * outcome
(** [reopen disk ~tables] restarts from a surviving disk image: reopen the
    database through the catalog, re-attach the 2VNL registry ([tables]
    gives each registered table's base schema; [n] as in
    {!Twovnl.attach_table}), and — if the Version relation says maintenance
    was interrupted — run the §7 repair and persist it.  Raises
    {!Vnl_query.Catalog.Corrupt} on an unreadable catalog and
    {!Vnl_storage.Disk.Corrupt_page} when a torn page is read. *)
