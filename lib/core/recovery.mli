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

    An exception raised before the publish is handled by
    {!abort_on_failure} and re-raised: after a live failure the warehouse
    is back in its pre-state, with no maintenance left active, and accepts
    the next transaction. *)

val abort_on_failure :
  Vnl_query.Database.t -> Twovnl.Txn.m -> context:string -> exn -> unit
(** The one abort rule of both maintenance drivers ({!run_maintenance}
    and {!Pipeline}), applied on behalf of a failure [e] the caller is
    about to re-raise.  A {!Vnl_storage.Disk.Crash} leaves everything
    untouched: the disk is gone and {!reopen} repairs it.  Any other
    failure aborts the transaction in memory ({!Twovnl.Txn.abort}: unstage
    DDL, §7 no-log revert above the last published VN), then saves [db]
    so the repair is durable.  The abort's own failure stays subordinate
    to [e]: it is logged, naming [context], and counted
    ([maintenance.abort_failures]) — except asynchronous fatals
    ([Out_of_memory], [Stack_overflow]), which propagate and take
    precedence. *)

val publish : Twovnl.t -> Twovnl.Txn.m -> unit
(** Durability point 3, traced as [maintenance.publish]: publish the
    transaction's next VN ({!Twovnl.Txn.publish}), then flush the Version
    page, the only page a publish dirties.  {!run_maintenance} calls it
    once; a pipelined refresh once per stripe. *)

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
