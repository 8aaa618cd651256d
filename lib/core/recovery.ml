module Database = Vnl_query.Database
module Buffer_pool = Vnl_storage.Buffer_pool
module Disk = Vnl_storage.Disk

let log_src = Logs.Src.create "vnl.recovery" ~doc:"crash recovery"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome = {
  interrupted : bool;
  reverted : int;
}

(* The §7 write-ordering invariant, stated once and relied on twice (here
   and per stripe in Pipeline's token section, under Warehouse.refresh):

     flag -> data -> catalog -> publish

   1. maintenanceActive = true reaches disk before any mutation of the
      transaction can (the flag page is flushed before the first apply, and
      background evictions of mutated pages therefore always land on a disk
      that already says "in maintenance");
   2. every mutated data page and the catalog describing any newly
      allocated pages reach disk before
   3. the commit publish (currentVN := vn, maintenanceActive := false) is
      written.

   A save writes the catalog only when it changed, so a commit that grows
   no heap and stages no DDL writes no catalog page.  The flag's save still
   flushes every dirty frame, not just the Version page: a collection's
   physical deletes dirty pages outside maintenance, and a publish that
   overtook one could revive a collected record beside its re-insert.

   Under this ordering the surviving disk image is always one of: clean
   pre-txn (crash before 1 completed), in-maintenance (flag set, any subset
   of mutations durable — §7 repair reverts the subset from the tuples' own
   pre-update slots), or clean post-txn (publish durable).  There is no
   window in which mutations are durable but unflagged, which is the one
   state no-log recovery could not distinguish from health. *)

module Obs = Vnl_obs.Obs

(* An abort itself failing while handling a primary failure: the primary
   exception still propagates, but the repair did not land — the warehouse
   may need a reopen.  Loud in the log, countable here. *)
let m_abort_failures = Obs.Registry.counter "maintenance.abort_failures"

(* The one abort rule, for both maintenance drivers: a [Disk.Crash] means
   the disk is gone and the repair belongs to {!reopen}; any other failure
   before the last publish gets the §7 no-log abort on the spot (which
   also unstages any DDL), then a save so a later crash cannot resurrect
   the reverted stamps. *)
let abort_on_failure db txn ~context e =
  match e with
  | Disk.Crash _ -> ()
  | _ -> (
    try
      ignore (Twovnl.Txn.abort txn);
      Database.save db
    with
    | (Out_of_memory | Stack_overflow) as fatal -> raise fatal
    | secondary ->
      Obs.Counter.record m_abort_failures 1;
      Log.err (fun m ->
          m "maintenance abort failed while handling %s: %s" context
            (Printexc.to_string secondary)))

(* Durability point 3, shared by {!run_maintenance} and each pipeline
   stripe: publish the next VN, then flush the Version page — the only
   page a publish dirties. *)
let publish vnl txn =
  Obs.with_span "maintenance.publish" (fun () ->
      Twovnl.Txn.publish txn;
      Buffer_pool.flush_pages
        (Database.pool (Twovnl.database vnl))
        [ Version_state.storage_page (Twovnl.version_state vnl) ])

let run_maintenance db vnl f =
  Obs.with_span "maintenance.txn" @@ fun () ->
  let txn = Twovnl.Txn.begin_ vnl in
  let result =
    try
      (* Durability point 1: the flag (with every dirty frame, and the
         catalog if it changed since the last save) on disk before any
         maintenance mutation exists, so a crash during apply is
         detectable. *)
      Obs.with_span "maintenance.flag" (fun () -> Database.save db);
      let result = Obs.with_span "maintenance.apply" (fun () -> f txn) in
      (* Durability point 2: mutated data pages, then the catalog naming
         any pages the transaction allocated or any DDL it staged.  [save]
         flushes every dirty frame and writes the catalog only if it
         changed, giving exactly apply -> flush -> catalog-write. *)
      Obs.with_span "maintenance.flush" (fun () ->
          Buffer_pool.flush_all (Database.pool db);
          Database.save db);
      result
    with e ->
      abort_on_failure db txn ~context:"a maintenance failure" e;
      raise e
  in
  publish vnl txn;
  result

let reopen ?pool_capacity ?n disk ~tables =
  Obs.with_span "recovery.reopen" @@ fun () ->
  let db = Database.reopen ?pool_capacity disk in
  let vnl = Twovnl.attach db in
  (* A catalog carrying generation metadata rebuilds itself — including
     discarding a generation staged by an evolution that crashed before its
     publish; the caller's [tables] list describes only the original (gen-0)
     schemas and would mis-attach an evolved table. *)
  if Database.generations_meta db <> [] then Twovnl.attach_generations vnl
  else
    List.iter (fun (name, base) -> ignore (Twovnl.attach_table vnl ?n ~name base)) tables;
  let interrupted = Version_state.maintenance_active (Twovnl.version_state vnl) in
  let outcome =
    Obs.with_span "recovery.repair" @@ fun () ->
    let reverted = Twovnl.recover vnl in
    if interrupted then begin
      (* Make the repair durable so a second crash cannot resurrect the
         interrupted transaction's stamps. *)
      Database.save db;
      Log.info (fun m -> m "recovered interrupted maintenance: %d tuples reverted" reverted)
    end;
    { interrupted; reverted }
  in
  (vnl, outcome)
