(** LRU buffer pool over a {!Disk}, with a scan ring.

    All page access goes through [with_page]/[with_page_mut]; misses cost a
    physical read, dirty evictions and [flush_all] cost physical writes.
    The I/O experiment compares algorithms by the physical counters gathered
    here, mirroring how the paper frames MV2PL's version-pool penalty
    (§6).

    Frames live on an intrusive doubly-linked recency list, so a hit
    (move-to-front) and an eviction (pop the tail) are both O(1); the miss
    path never scans the resident set.  Every access is plain LRU except
    {!scan_page}: a full scan of a table larger than the pool inserts its
    misses at the cold end, so they recycle about one frame and the rest
    of the pool survives the scan (PostgreSQL's bulk-read ring; LRU
    insertion, Qureshi et al., ISCA 2007).

    A miss reads the page straight into the evicted frame's buffer
    ({!Disk.read_into}) rather than into a fresh one: the victim is
    written back and dead-stamped first, so no reader can validate the
    reused bytes under the old page (DESIGN.md §12).

    Frames are pinned for the duration of the [with_page]/[with_page_mut]
    callback: a nested page access inside the callback can evict other
    frames but never the pinned one, so mutations through the callback's
    bytes always reach the frame that will be written back.  If every frame
    is pinned when an eviction is needed, the pool raises [Failure] rather
    than corrupt a live caller.

    Domain-safe: a pool mutex guards the frame table, recency list, pin
    counts, and all disk traffic; each frame carries a reader-writer latch
    guarding its bytes.  [with_page] callbacks of several reader domains
    run concurrently on the same frame (shared latch) while
    [with_page_mut] excludes them (exclusive latch), so a reader can never
    decode a half-written tuple.  Counters are lock-free atomics and
    always consistent ([hits + misses = logical_reads] even under
    contention).

    On top of the latched protocol sits the optimistic path: every frame
    carries an atomic version stamp (even = stable, odd = mutating) that
    [with_page_mut] bumps around its mutation, and {!read_page} reads
    resident pages with no latch, no pin, and no pool mutex by validating
    the stamp around the callback — retrying on conflict and falling back
    to the latched path after a bounded number of attempts (or when the
    page is not resident).  See DESIGN.md §12 for the full protocol. *)

type t

type stats = {
  logical_reads : int;  (** Page requests served (hits + misses). *)
  hits : int;
  misses : int;  (** Each miss is one physical read. *)
  evictions : int;
  physical_writes : int;  (** Dirty evictions plus explicit flushes. *)
  seq_writes : int;
      (** Write-backs landing on the page at or just past the pool's previous
          write-back — no seek, cf. {!Disk.stats}.  After [reset_stats] the
          head sits before page 0: the first write-back is sequential iff it
          targets page 0. *)
  rand_writes : int;  (** Write-backs that moved the head. *)
  pin_waits : int;
      (** Pinned frames the eviction scan had to skip over — each skip is
          a would-be wait for the pin to drain. *)
  opt_reads : int;
      (** [read_page] calls whose stamp validated: served latch-free.
          Each also counts one logical read and one hit. *)
  opt_retries : int;
      (** Optimistic attempts discarded — odd stamp at snapshot, or a
          stamp change between snapshot and validate. *)
  opt_fallbacks : int;
      (** [read_page] calls served by the latched path instead: page not
          resident, or the retry budget ran out under mutation pressure. *)
}

val create : ?capacity:int -> Disk.t -> t
(** [capacity] is the frame count, default 64. *)

val disk : t -> Disk.t

val capacity : t -> int
(** The frame count. *)

val alloc_page : t -> int
(** Allocate a fresh zeroed page on the underlying disk and cache it;
    returns the page id. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** [with_page t pid f] pins the page, applies [f] to the frame bytes for
    read-only use, and unpins (also on exception).  The bytes must not be
    mutated or retained past the call.  Nested page accesses inside [f] are
    safe: the pinned frame is never the eviction victim.  Raises [Failure]
    if an eviction is needed while every frame is pinned. *)

val with_page_mut : t -> int -> (bytes -> 'a) -> 'a
(** Like [with_page] but marks the frame dirty; mutations through [f] reach
    disk on eviction or flush.  Bumps the frame's version stamp to odd
    before [f] and back to even after, inside the exclusive latch, so
    concurrent {!read_page} attempts over the same frame are discarded. *)

val read_page : t -> int -> (bytes -> 'a) -> 'a
(** [read_page t pid f] is [with_page t pid f] served latch-free when it
    can be: if the page is resident, [f] runs directly on the frame bytes
    with no latch, pin, or pool mutex, bracketed by a version-stamp
    snapshot/validate (seqlock read side).  On validation failure it
    retries a bounded number of times, then — or when the page is not
    resident — falls back to the latched [with_page] path, so it always
    makes progress under continuous mutation.

    [f] must tolerate re-execution and may observe bytes mid-mutation
    during an attempt that subsequently fails validation: it must be pure
    (no external side effects, accumulate locally) and must not crash on
    garbage input — page decoding is bounds-checked, so torn images
    produce wrong values or exceptions, both discarded with the failed
    attempt.  Results (and exceptions) are surfaced only from a validated
    attempt or from the latched fallback.

    Unlike [with_page], a validated optimistic read does not touch the
    LRU recency list. *)

val scan_page : t -> int -> (bytes -> 'a) -> 'a
(** [read_page] for one page of a full scan of a table with more pages
    than the pool has frames: a miss enters the recency list at the cold
    end, so the scan's next miss evicts it again.  Hits behave exactly as
    in [read_page].  Only such scans may use it; a page read and then
    written (maintenance) must stay on the plain LRU path, or the write
    misses again. *)

val flush_all : t -> unit
(** Write every dirty frame back to disk in ascending page-id order, so a
    flush after page-ordered maintenance is one sequential sweep and the
    write order is deterministic. *)

val flush_pages : t -> int list -> unit
(** [flush_pages t pids] writes exactly the named pages back (ascending,
    duplicates ignored); non-resident or clean pages are no-ops.  Unlike
    {!flush_all} — whose sweep {e skips} a frame whose mutator is still
    inside its exclusive latch — this call {e blocks} until each target
    frame's mutator drains, so on return every named page is durably on
    disk.  This is the per-partition durability point of the pipelined
    maintenance path: a concurrent applier touching a shared boundary page
    delays the flush briefly but can never cause it to be skipped. *)

val stats : t -> stats
(** Thin reads of the pool's metric cells (see [metrics_registry]). *)

val metrics_registry : t -> Vnl_obs.Obs.Registry.t
(** The pool's private metrics registry — the single source of truth for
    the counters [stats] reads.  The cells count unconditionally
    (regardless of [Obs.enabled]): the I/O accounting is experiment data,
    not optional telemetry. *)

val reset_stats : t -> unit
(** Reset the pool's metrics registry (all counters, plus the write-head
    gauge back to "before page 0") and the underlying disk counters.
    Cached pages stay resident; experiments that want a cold cache should
    also call [drop_cache]. *)

val drop_cache : t -> unit
(** Flush dirty frames (ascending page id, as [flush_all]) and empty the
    pool, so subsequent reads are cold. *)

val pp_stats : Format.formatter -> stats -> unit
