(** The global Version relation (§4), generalized for nVNL.

    [currentVN] and [maintenanceActive] are stored in a single-tuple,
    two-attribute relation inside the DBMS itself, read by readers and
    updated by maintenance transactions — exactly the implementation the
    paper prescribes for a query-rewrite deployment.  Following §4's
    abort-visibility remark, a publish updates [currentVN] only {e after}
    the maintenance work is complete.

    A maintenance transaction begins [count] consecutive VNs at once
    ([currentVN + 1 .. currentVN + count]; one for the paper's
    transaction) and publishes them strictly in order, each publish
    advancing [currentVN] by one and decrementing the outstanding count.
    The stored attribute remains the paper's Bool ([outstanding > 0]), so
    the disk format and the §4.1 SQL rewrite are unchanged, and §7 crash
    repair — which reverts every tuple stamped above the stored
    [currentVN] — needs no per-transaction bookkeeping to survive.

    {!Twovnl.Txn} is the one caller of {!begin_round}, {!publish} and
    {!abort_maintenance}. *)

type t

val table_name : string
(** ["Version"]. *)

val install : Vnl_query.Database.t -> t
(** Create the Version relation with [currentVN = 1],
    [maintenanceActive = false].  Raises [Invalid_argument] if it already
    exists. *)

val attach : Vnl_query.Database.t -> t
(** Re-attach to an existing Version relation (after {!Vnl_query.Database.reopen}).
    Raises [Failure] when the relation or its single tuple is missing.
    A stored [maintenanceActive = true] attaches as one outstanding VN —
    the exact pre-crash count is irrelevant to repair. *)

val current_vn : t -> int
(** Read [currentVN].  Served from an [Atomic] cache of the stored tuple
    so reader domains validate sessions without touching the buffer pool;
    the cache is published by every write (and re-primed by {!attach}),
    and the boxed pair guarantees [currentVN] and the outstanding count
    are always read consistently. *)

val maintenance_active : t -> bool
(** [outstanding t > 0]. *)

val outstanding : t -> int
(** Maintenance VNs begun but not yet published: 0 when idle, up to the
    transaction's [count] while one runs. *)

val read_outstanding : t -> int * int
(** One consistent read of [(currentVN, outstanding)] — the pair readers
    need for the generalized expiry check, from a single atomic load. *)

val storage_page : t -> int
(** The heap page holding the Version tuple; the publish step flushes
    exactly this page. *)

val begin_round : t -> count:int -> int
(** Set [maintenanceActive], begin [count] consecutive maintenance VNs and
    return the base — the VNs are [base + 1 .. base + count].  Raises
    [Invalid_argument] when a maintenance transaction is already active
    (the external protocol of §2.2 admits one at a time), or
    [count < 1]. *)

val publish : t -> vn:int -> unit
(** Publish the next VN: requires [vn = currentVN + 1] and an outstanding
    count > 0, advances [currentVN] to [vn] and decrements the count (the
    stored flag clears with the last publish).  In-order publication is
    enforced by the [vn] check. *)

val abort_maintenance : t -> unit
(** Clear the outstanding count leaving [currentVN] unchanged: this
    abandons {e every} unpublished VN (a published prefix stays
    committed). *)
