(** Observability: a zero-dependency metrics registry and span tracer.

    The paper's claims are quantitative — maintenance overhead and reader
    latency must stay bounded while both run concurrently (§6) — so the
    stack reports what it does through named {e counters}, {e gauges}, and
    fixed-bucket latency {e histograms} collected in a registry, plus
    begin/end {e spans} over the maintenance and recovery phases.

    Everything observable is gated on the single switch {!enabled}: with
    it off (the default), every instrumentation site is one load and one
    conditional branch, so an uninstrumented-grade hot path survives in
    the instrumented build.  Metric {e cells} themselves are ungated plain
    mutable state — subsystems that must count unconditionally (the buffer
    pool's I/O accounting, which experiments compare with observability
    off) own cells in a private {!Registry.t} and update them with
    {!Counter.add}; global default-registry mirrors use {!Counter.record},
    which honours {!enabled}.

    Domain-safe: counters and gauges are lock-free atomics, histograms and
    registries take a short private mutex per operation, and span traces
    are {e domain-local} — each domain records into its own ring and
    stack, merged into one begin-ordered view at export time
    ({!recent_spans}).  Instrumentation sites therefore never contend
    beyond a fetch-and-add unless they observe a histogram. *)

val enabled : bool ref
(** The master switch for all {e gated} recording ([record] operations and
    spans).  Default [false]. *)

module Counter : sig
  type t

  val name : t -> string

  val get : t -> int

  val add : t -> int -> unit
  (** Unconditional: for cells whose counts are semantically load-bearing
      (I/O parity) rather than observational. *)

  val incr : t -> unit

  val record : t -> int -> unit
  (** [add] gated on {!enabled}; no-op otherwise. *)

  val reset : t -> unit
end

module Gauge : sig
  type t

  val name : t -> string

  val get : t -> int

  val set : t -> int -> unit
  (** Unconditional. *)

  val record : t -> int -> unit
  (** [set] gated on {!enabled}. *)

  val reset : t -> unit
  (** Back to the gauge's initial value (default 0). *)
end

module Histogram : sig
  type t

  val name : t -> string

  val observe : t -> float -> unit
  (** Unconditional. *)

  val record : t -> float -> unit
  (** [observe] gated on {!enabled}. *)

  val count : t -> int

  val total : t -> float

  val summary : t -> Vnl_util.Stats.summary
  (** [Stats.summary]-compatible view: exact [n]/[mean]/[stddev]/[min]/
      [max]/[total]; percentiles estimated from the fixed buckets (the
      upper bound of the bucket holding the rank, clamped to the observed
      [min]/[max]). *)

  val reset : t -> unit
end

module Registry : sig
  type t
  (** A named-metric namespace.  {!default} is the process-wide registry
      every exporter reads; private registries back per-instance stats
      (e.g. one per buffer pool) so concurrent instances never share
      cells. *)

  val create : unit -> t

  val default : t

  val counter : ?registry:t -> string -> Counter.t
  (** Idempotent by name: the first call creates, later calls return the
      same cell.  Raises [Invalid_argument] if the name is already a
      metric of another kind. *)

  val gauge : ?registry:t -> ?initial:int -> string -> Gauge.t

  val histogram : ?registry:t -> ?buckets:float array -> string -> Histogram.t
  (** [buckets] are ascending upper bounds (an overflow bucket is
      implicit); the default covers 1µs–10s latencies in ms. *)

  val reset : t -> unit
  (** Zero every cell (gauges back to their initial value).  This is the
      single reset path: subsystems exposing [reset_stats] delegate
      here. *)

  val counters : t -> Counter.t list
  (** Sorted by name, as are [gauges] and [histograms]. *)

  val gauges : t -> Gauge.t list

  val histograms : t -> Histogram.t list
end

(** {1 Span tracing}

    A span is one timed phase (fold, index resolve, apply, flush, publish,
    repair, ...).  Spans nest: the depth records how many spans were open
    when this one began.  Completed spans land in a bounded ring buffer of
    recent history and fold their duration into the default-registry
    histogram [span.<name>] — the source for per-phase breakdowns. *)

module Span : sig
  type status = Closed | Aborted

  type t = {
    name : string;
    depth : int;  (** Number of enclosing open spans at begin time. *)
    seq : int;  (** Global begin-order sequence number. *)
    start_s : float;  (** {!Sys.time} at begin. *)
    mutable stop_s : float;
    mutable status : status;
  }

  val duration_ms : t -> float
end

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  With {!enabled} off this is exactly one
    branch around the call.  If the thunk raises, the span is closed with
    status {!Span.Aborted} — spans never leak — and the exception
    propagates. *)

val open_spans : unit -> int
(** Currently open (begun, not yet ended) spans {e of the calling
    domain} — spans are domain-local, so a reader domain never observes
    the maintainer's open spans. *)

val recent_spans : unit -> Span.t list
(** Completed spans of {e every} domain merged into global begin order
    (by {!Span.t.seq}), bounded per domain by {!set_trace_capacity}. *)

val set_trace_capacity : int -> unit
(** Resize (and clear) every domain's completed-span ring.  Default 256. *)

(** {1 Reset and export} *)

val reset : unit -> unit
(** {!Registry.reset} on the default registry, plus clear the span ring.
    Open spans are unaffected. *)

val to_json : ?registry:Registry.t -> unit -> string
(** The registry (default: {!Registry.default}) as a JSON object with
    [counters], [gauges], [histograms], and — for the default registry —
    [spans] (the recent ring).  Parses with {!Json.parse}. *)

val to_prometheus : ?registry:Registry.t -> unit -> string
(** Prometheus text exposition: [vnl_]-prefixed, dots mapped to
    underscores; histograms emit [_bucket]/[_sum]/[_count] series. *)

val phase_summaries : unit -> (string * Vnl_util.Stats.summary) list
(** The [span.<name>] histograms of the default registry, prefix stripped,
    sorted by name — the per-phase breakdown (durations in ms). *)

val phases_json : unit -> string
(** {!phase_summaries} as a JSON object:
    [{"fold": {"count": n, "total_ms": t, "mean_ms": m, "p99_ms": p}, ...}]
    — the [phases] section embedded in every [BENCH_*.json]. *)
