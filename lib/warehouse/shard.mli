(** Multi-tenant sharded warehouse: a shard map routing source changes by
    a tenant/time shard key to independent shards, templated per-shard
    summary views, and consistent cross-shard reads.

    Each shard is a full {!Warehouse.t} — its own database, its own
    {!Vnl_core.Twovnl} version state, its own maintenance queues and
    (pipelined) refresh stream — so maintenance of one shard never blocks
    readers or maintenance of another; this is the paper's per-relation
    version independence promoted to the scaling unit.  A view is authored
    once as a {e template} and stamped per shard
    ({!View_def.instantiate}); the logical view is the union of the
    instances ({!Summary.merge_union}).

    A reader gets a consistent cross-shard snapshot as a {e vector} of
    per-shard session VNs ({!Vnl_core.Twovnl.Session.begin_vector}): each
    component pins a consistent snapshot of its shard for the session's
    lifetime.  Because shards share no base rows, any vector of per-shard
    consistent states is a consistent state of the union — there is no
    cross-shard transaction to tear. *)

module Shard_map : sig
  type t
  (** Routes a source row to a shard. *)

  val create : shards:int -> route:(Vnl_relation.Tuple.t -> int) -> t
  (** [shards >= 1]; [route] must return a value in [0 .. shards - 1]
      (checked at routing time).  Raises [Invalid_argument] on
      [shards < 1]. *)

  val by_attrs :
    shards:int -> source:Vnl_relation.Schema.t -> attrs:string list -> t
  (** Deterministic hash routing over the named source attributes — the
      tenant/time shard key (e.g. [["state"]] or [["state"; "date"]] for
      the sales domain).  Rows equal on the key always land on the same
      shard, so a group of any view whose group-by contains the key never
      straddles shards.  Raises [Invalid_argument] on unknown
      attributes or an empty list. *)

  val shards : t -> int

  val route : t -> Vnl_relation.Tuple.t -> int
  (** Raises [Invalid_argument] if the routing function strays outside
      [0 .. shards - 1]. *)

  val partition_changes : t -> Delta.change list -> Delta.change list array
  (** Route each change to its shard, preserving per-shard arrival order.
      An update whose old and new rows route to different shards (the
      shard key itself changed) splits into a [Delete] on the old row's
      shard and an [Insert] on the new row's shard — the same net effect,
      each half local to one shard. *)
end

(** The sharded warehouse facade.  Views are addressed by {e template}
    name; instance names are internal. *)
module Sharded : sig
  type t

  val create :
    ?n:int ->
    ?page_size:int ->
    ?pool_capacity:int ->
    shard_map:Shard_map.t ->
    View_def.t list ->
    t
  (** One warehouse per shard, each hosting a stamped instance of every
      template.  The shard map's routing function is applied to every
      template's source rows, so the templates should share a source
      schema (or at least agree on the routed positions). *)

  val shard_map : t -> Shard_map.t

  val shard_count : t -> int

  val shard : t -> int -> Warehouse.t
  (** The underlying per-shard warehouse (tests reach through this for
      fault injection and per-shard assertions). *)

  val templates : t -> View_def.t list

  val queue_changes : t -> view:string -> Delta.change list -> unit
  (** Route the batch through the shard map and queue each shard's slice
      against its instance of the template (applying it to that shard's
      simulated source). *)

  val pending : t -> view:string -> int
  (** Total queued changes across shards for the template. *)

  val pending_shard : t -> shard:int -> view:string -> int

  val refresh_shard :
    ?workers:int ->
    ?on_phase:(Vnl_core.Pipeline.phase -> stripe:int -> unit) ->
    ?run:(Vnl_core.Pipeline.plan -> Vnl_core.Pipeline.report) ->
    t ->
    shard:int ->
    Summary.outcome list
  (** One refresh round on one shard ({!Warehouse.refresh}, including its
      abort/requeue guarantee). *)

  val refresh_all : ?domains:int -> ?workers:int -> t -> Summary.outcome list array
  (** Refresh every shard, indexed by shard: one {!Warehouse.refresh} round
      of at most [workers] (default 1) stripes each.  [domains > 1]
      distributes shards round-robin across that many OCaml domains —
      shards share no state, so per-shard maintenance is embarrassingly
      parallel.  The pipeline's worker pool is process-wide and one
      multi-stripe round owns it at a time, so cross-shard parallelism
      composes with one-stripe rounds only.  Raises [Invalid_argument]
      when [domains < 1], or when both [domains] and [workers] exceed 1. *)

  val evolve : t -> Warehouse.evolution list -> unit
  (** Apply the same logical schema evolution to every shard: template
      view names map to each shard's instances, and each shard commits its
      own evolution transaction ({!Warehouse.evolve}).  Shards share no
      state, so there is no cross-shard atomicity — a failure mid-way
      leaves a prefix of shards evolved, each internally consistent.
      Union reads keep merging on the template's original target schema;
      added columns are per-shard payload the union projects away. *)

  val collect_garbage : t -> int
  (** Sum of collected versions across shards. *)

  type session
  (** A cross-shard snapshot: one 2VNL session per shard, begun as a
      vector. *)

  val begin_session : t -> session

  val end_session : t -> session -> unit

  val session_valid : t -> session -> bool
  (** Every component session still valid (a shard's refresh cadence can
      expire its component independently). *)

  val vn_vector : session -> int list
  (** The snapshot's per-shard version numbers. *)

  val read_shard_view :
    t -> session -> shard:int -> view:string -> Vnl_relation.Tuple.t list
  (** One shard's visible instance relation at the session's component
      VN.  Raises {!Vnl_core.Twovnl.Expired} when that component
      expired. *)

  val read_union : t -> session -> view:string -> Vnl_relation.Tuple.t list
  (** The logical view: per-shard visible instances merged with
      {!Summary.merge_union}, each component read at its session VN — a
      consistent cross-shard snapshot of the union view. *)

  val expected_union : t -> view:string -> Vnl_relation.Tuple.t list
  (** Ground truth: each shard's instance recomputed from its simulated
      source (queued changes included), merged.  Compare against
      {!read_union} right after draining every shard. *)
end
