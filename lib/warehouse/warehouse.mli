(** The warehouse facade: materialized summary views over simulated sources,
    maintained on-line under 2VNL.

    One warehouse owns one database, one {!Vnl_core.Twovnl} instance, the
    view definitions, and the simulated sources.  [refresh] runs one
    maintenance transaction that propagates queued source changes into every
    affected view — the paper's operating model, with readers continuing
    concurrently. *)

type t

val create : ?n:int -> ?page_size:int -> ?pool_capacity:int -> View_def.t list -> t
(** Build a warehouse hosting the given views (each becomes a registered
    nVNL table; [n] defaults to 2). *)

val vnl : t -> Vnl_core.Twovnl.t

val database : t -> Vnl_query.Database.t

val view : t -> string -> View_def.t
(** Raises [Failure] for unknown views. *)

val views : t -> View_def.t list

val source : t -> string -> Source.t
(** The simulated source feeding the named view. *)

val queue_changes : t -> view:string -> Delta.change list -> unit
(** Append source changes to the view's pending queue (and apply them to
    the simulated source so ground-truth recomputation stays in step).  A
    batch naming an absent row raises [Invalid_argument] with neither the
    source nor the queue changed. *)

val pending : t -> view:string -> int
(** Queued changes not yet propagated. *)

val peek_pending : t -> view:string -> Delta.change list
(** The queued changes in arrival order, without draining them (the
    abort/requeue tests inspect the queue after a failed round). *)

val take_pending : t -> view:string -> Delta.change list
(** Drain the view's queue, returning the batch in arrival order; used by
    scenarios that spread one maintenance transaction over simulated time
    instead of calling {!refresh}. *)

val requeue : t -> view:string -> Delta.change list -> unit
(** Put [changes] back at the front of the view's queue, in the order
    given, ahead of anything queued since.  The source already holds them
    ({!queue_changes} applied them), so a batch taken with {!take_pending}
    whose maintenance transaction aborts must be requeued, or the view
    never sees it. *)

val refresh :
  ?workers:int ->
  ?on_phase:(Vnl_core.Pipeline.phase -> stripe:int -> unit) ->
  ?run:(Vnl_core.Pipeline.plan -> Vnl_core.Pipeline.report) ->
  t ->
  Summary.outcome list
(** Propagate every queued batch as one maintenance round
    ({!Vnl_core.Pipeline}) and return per-view outcomes (in view order).
    Each view's net deltas are probed for their rids in one pass over the
    unique-key index ({!Summary.plan_batch}), partitioned into
    dependency-disjoint stripes (at most [workers], default 1, further
    capped at n - 1), and classified and written on their page bytes, one
    page run per page, with VNs published strictly in order, each stripe
    under the crash-safe flag → data → catalog → publish ladder.  With [workers = 1] the round
    is one stripe on the calling domain: one VN, one maintenance commit.
    Readers run throughout; with the warehouse created at
    [n >= workers + 1], sessions opened at round begin stay valid across
    the whole round.  A crash at any write leaves a disk image
    {!Vnl_core.Recovery.reopen} repairs to a VN-prefix boundary of the
    round (for one stripe: the pre- or post-refresh state).

    The outcomes are the classification's group counts: a group whose
    support drops to zero counts as deleted, whatever physical action
    (usually an in-place update carrying the delete mark) 2VNL uses for it.

    If the refresh fails — in planning, or in any stripe (classification
    included, which runs inside the page runs) — the unpublished stripes
    are reverted with the §7 no-log abort and made durable, and the source
    changes they carried are put back with {!requeue} before the exception
    re-raises.  No queued change is lost and the
    version state is never left active, so a follow-up {!refresh}
    converges to {!expected_view}.  (A change whose net effect straddles
    the published boundary is requeued as just its unpublished half.)
    Raises [Invalid_argument] when [workers < 1], with the whole batch
    requeued.

    [on_phase] is forwarded to {!Vnl_core.Pipeline.plan} (deterministic
    fault injection); [run] (default {!Vnl_core.Pipeline.run}) lets tests
    drive the round through {!Vnl_util.Sched} via
    {!Vnl_core.Pipeline.tasks}/{!Vnl_core.Pipeline.finish}. *)

type evolution =
  | Add_column of {
      view : string;
      attr : Vnl_relation.Schema.attribute;
      default : Vnl_relation.Value.t;
    }
      (** [ALTER TABLE view ADD COLUMN attr DEFAULT default].  Key columns
          are rejected (they would change group identity retroactively). *)
  | Add_view of { def : View_def.t; n : int option }
      (** [CREATE VIEW]: a fresh empty summary table ([n] defaults to the
          engine's 2); feed it through {!queue_changes} + {!refresh}. *)
  | Add_index of { view : string; index : string; attrs : string list }
      (** [CREATE INDEX index ON view (attrs)]. *)

val evolve : t -> evolution list -> unit
(** Commit a schema evolution on the live warehouse: one maintenance
    transaction stages a new catalog generation (see
    {!Vnl_core.Twovnl.Txn.add_column} et al.) under the crash-safe
    flag → data → catalog → publish ordering and publishes it.  Sessions
    open across the commit keep their old generation's schema view;
    sessions begun after it resolve the new one.  A crash at any write
    reopens to exactly the pre- or post-evolution catalog. *)

val catalog_generation : t -> int
(** Index of the newest committed catalog generation (0 until the first
    {!evolve}). *)

val begin_session : t -> Vnl_core.Twovnl.Session.s

val end_session : t -> Vnl_core.Twovnl.Session.s -> unit

val query :
  ?params:(string * Vnl_relation.Value.t) list ->
  t -> Vnl_core.Twovnl.Session.s -> string -> Vnl_query.Plan.result
(** Session-consistent SQL over the views (2VNL rewrite), compiled once
    per statement and served from the plan cache thereafter; [params]
    supplies named parameters so value-varying workloads share plans. *)

val read_view :
  t -> Vnl_core.Twovnl.Session.s -> string -> Vnl_relation.Tuple.t list
(** Engine-level consistent read of a whole view (any n). *)

val expected_view : t -> string -> Vnl_relation.Tuple.t list
(** Ground truth: recompute the view from the simulated source's current
    base data (reflects {e queued} changes too, so compare right after a
    refresh).  For an evolved view, the recomputed groups carry the added
    columns' defaults in evolution order. *)

val collect_garbage : t -> int
