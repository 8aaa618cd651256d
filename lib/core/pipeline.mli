(** Pipelined parallel maintenance: one refresh as a {e round} of k
    dependency-disjoint stripes, applied by k workers under nVNL with VNs
    published strictly in order.

    A maintenance transaction ({!Recovery.run_maintenance}) runs one
    flag → apply → flush → catalog → publish ladder.  This driver, the
    engine under every warehouse refresh, takes the refresh's changes
    ({!Batch.change}: one per key, each with the rid the unique-key index
    gave for it and the view's classifier), splits them with
    {!Sched_batch.partition} into key- and index-footprint-disjoint
    partitions, begins one maintenance transaction reserving one VN per
    stripe ([Twovnl.Txn.begin_ ~count]), and runs the stripes on worker
    domains (a round of one stripe runs on the calling domain):

    - {b fold} (parallel): each worker groups its partitions' changes by
      the page of their rid ({!Batch.group}), reading no page.
    - {b apply} (parallel): one page run per page holding a present key
      ({!Batch.apply_in_place}): each record is classified on its bytes
      and written in the same run.  Partitions are key-disjoint, so each
      classification sees the pre-round state however the round
      interleaves and no stripe waits for another to start writing;
      in-place writes never move slots, and the partitioner merged any
      two partitions sharing a secondary index.
    - {b token} (serialized, stripe order): the fresh inserts as insert
      runs ({!Batch.apply_fresh}), then the stripe's own §7 durability
      ladder — targeted flush of every page the stripe wrote
      ({!Vnl_storage.Buffer_pool.flush_pages}), catalog save when a heap
      grew ([`Catalog_only]), then {!Recovery.publish}: the stripe's VN,
      and the Version page flush.  The phases trace as the transaction's
      own [maintenance.apply] / [maintenance.flush] /
      [maintenance.publish] spans.  In-order publication keeps every
      prefix of the round a state some serial execution would have
      produced, which is what makes a mid-round crash land on a VN
      boundary ({!Twovnl.recover}).

    Readers run throughout: session validity charges the round's
    outstanding VNs ([currentVN - sessionVN + outstanding <= n - 1]), so
    with n >= k + 1 a session opened at round begin survives the whole
    round; the stripe count is capped at n - 1.

    Failure of any worker — a classification that rejects its record
    inside a page run included — parks the round: remaining workers
    drain, the unpublished suffix is reverted ({!Twovnl.Txn.abort} — the
    published prefix is exactly a shorter round's commit), and the
    exception re-raises from {!finish}.  Both are
    {!Recovery.abort_on_failure}'s rule, shared with
    {!Recovery.run_maintenance}: a {!Vnl_storage.Disk.Crash} skips the
    in-place repair, and {!Recovery.reopen} repairs the disk image
    instead. *)

type plan

type report = {
  stripes : int;
  base_vn : int;  (** currentVN when the round began. *)
}

type phase = [ `Fold | `Apply | `Token ]
(** A stripe worker's three phases, in execution order. *)

val plan :
  ?on_phase:(phase -> stripe:int -> unit) ->
  Twovnl.t ->
  workers:int ->
  (string * Batch.change list) list ->
  plan
(** Partition each relation's changes (at most [min workers (n - 1)]
    partitions), begin the round, and make the raised maintenance flag
    durable.  No tuple is written yet.  Each relation's changes must carry
    at most one change per key, each probed against the pre-round state.
    Raises [Invalid_argument] when [workers < 1], a relation is
    unregistered, or maintenance is already active; if the flag save
    fails, the round is handled under {!Recovery.abort_on_failure}'s rule
    before the exception escapes.

    [on_phase], when given, is invoked at the start of every stripe phase
    (fold, apply, token — before any of that phase's work).  It exists for
    deterministic fault injection: raising from the hook aborts the round
    exactly as a worker failure at that point would, which is how the
    abort/requeue tests sweep every failure point of a round. *)

val stripe_count : plan -> int

val published : plan -> int
(** Stripes published so far (the committed prefix).  After a failed
    {!run} this tells the caller exactly which prefix of {!stripe_ops}
    landed — the unpublished suffix was reverted by the abort. *)

val stripe_keys : plan -> (int * (string * Vnl_relation.Value.t list list) list) list
(** Each stripe's (vn, per-relation keys), in input order — the serial
    reference schedule: applying stripe i's changes as one classic
    transaction committing at vn_i, in order, must produce the same
    warehouse state.  The differential and crash-sweep tests replay
    exactly this, and a failed refresh requeues what it names beyond the
    published prefix. *)

val stats : plan -> table:string -> Maintenance.stats
(** The relation's logical and physical counts, summed over the stripes:
    one logical insert, update or delete per classified change.  Exact once
    every stripe has published. *)

val tasks : plan -> (string * (unit -> unit)) list
(** The stripe workers as named thunks for {!Vnl_util.Sched.run}: a
    deterministic single-domain interleaving of the whole round (workers
    never block — they spin through {!Vnl_util.Sched.yield} — so any
    schedule drives the round to completion).  Call {!finish} afterwards. *)

val finish : plan -> report
(** Join the round: re-raise a worker failure (after reverting the
    unpublished suffix), or return the report.  If the revert itself fails
    the primary exception still propagates, under
    {!Recovery.abort_on_failure}'s rules. *)

val run : plan -> report
(** Execute the round on [stripe_count] domains
    ({!Vnl_util.Domain_pool.Persistent.parallel}) and {!finish} it.  A single stripe
    runs inline on the calling domain, and a round with more stripes than
    the host has cores runs the canonical in-order schedule there too
    (more worker domains than cores only add hand-off latency). *)
