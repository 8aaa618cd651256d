(** Parallel reader serving: 1 maintenance domain + N reader domains.

    Runs the Example 2.1 analyst workload (city total + product-line
    drill-down, plus periodic full-view scans) on [readers] OCaml 5
    domains while a maintenance domain applies random refresh batches
    through {!Vnl_core.Recovery.run_maintenance}.  Every query pair is
    checked for the 2VNL consistency criterion — the drill-down must sum
    to the total — so a mixed-version or torn read shows up in
    [inconsistent] rather than silently skewing throughput numbers. *)

type config = {
  readers : int;  (** Reader domains (>= 1); one maintenance domain rides along. *)
  duration_s : float;  (** Measured wall-clock window. *)
  days : int;  (** Days of history loaded before the run. *)
  batch_size : int;  (** Logical ops per refresh batch. *)
  n : int;  (** Version slots per table: 2 = 2VNL. *)
  pool_capacity : int;
  queries_per_session : int;  (** Query pairs before the session is reopened. *)
  seed : int;
}

val default_config : config

type report = {
  readers : int;
  elapsed_s : float;
  reader_queries : int;  (** Completed query pairs across all reader domains. *)
  per_reader : int array;  (** Query pairs completed by each reader domain. *)
  rows_scanned : int;  (** Tuples returned by full-view scans. *)
  sessions : int;  (** Reader sessions opened. *)
  expired : int;  (** Sessions ended early by version expiry. *)
  inconsistent : int;  (** Drill-downs that failed to sum to their total. *)
  refreshes : int;  (** Maintenance transactions committed. *)
  qps : float;  (** [reader_queries /. elapsed_s]. *)
  latency : Vnl_util.Stats.summary;
      (** Per-query-pair wall-clock latency in milliseconds, pooled over
          all reader domains; p50/p99 expose reader-side convoys that
          mean throughput hides. *)
}

val run : config -> report
(** Build a fresh warehouse, then serve for [duration_s] with
    [readers + 1] domains.  Deterministic in its inputs but not in its
    schedule; use the [test/] interleaving harness for reproducible
    interleavings. *)

(** {1 Maintainer-side scaling}

    The mirror scenario: fix the {e amount} of maintenance work (a
    pre-generated sequence of source batches, identical across
    configurations) and measure how fast it drains as
    {!Vnl_warehouse.Warehouse.refresh} rounds (driving
    {!Vnl_core.Pipeline}) of at most [workers] stripes under nVNL. *)

type pipeline_config = {
  workers : int;
      (** Stripes per round, and batches admitted per round; 0 runs as 1
          (the one-stripe base row of the pipeline bench). *)
  rounds : int;  (** Source batches to drain (the measured work). *)
  readers : int;  (** Concurrent reader domains (0 = none). *)
  days : int;
  batch_size : int;  (** Source changes per batch. *)
  n : int;  (** Version slots; pipelining wants [n >= workers + 1]. *)
  pool_capacity : int;
  queries_per_session : int;
  seed : int;
}

val default_pipeline_config : pipeline_config

type pipeline_report = {
  p_workers : int;
  p_rounds : int;
  p_elapsed_s : float;
  p_refreshes_per_s : float;  (** Source batches drained per second. *)
  p_ops_per_s : float;  (** Source changes propagated per second. *)
  p_stripes : int;  (** Published VNs across all rounds (= batches at one stripe). *)
  p_reader_queries : int;
  p_inconsistent : int;  (** Example 2.1 drill-downs that missed their total. *)
  p_expired : int;
}

val run_pipeline : pipeline_config -> pipeline_report
(** Build a fresh warehouse at [n] version slots, pre-generate [rounds]
    batches from [seed], and drain them.  The maintainer takes up to
    [workers] queued batches per round, nets them together, and publishes
    one VN per key-disjoint stripe in order — intermediate consistent
    states at the same granularity one-batch rounds give readers.  The
    batches and their order are functions of the config alone, so reports
    at different [workers] are directly comparable; reader domains (if
    any) run the consistency-checked analyst pair throughout and their
    failures land in [p_inconsistent]. *)
