module Obs = Vnl_obs.Obs
module Sched = Vnl_util.Sched

(* Frames form an intrusive doubly-linked list in recency order (head =
   most recent, tail = LRU victim), so touch and evict are O(1) pointer
   splices — the previous implementation scanned every frame with a
   Hashtbl.fold per eviction.  [nil] is a self-linked sentinel: the list is
   circular through it, which removes every option/None case from the
   splice code.

   Domain safety is split in three layers.  The pool mutex guards the
   frame table, the recency list, pin counts, and all disk traffic (load,
   write-back).  Each frame carries a reader-writer latch guarding its
   bytes for the pessimistic path: [with_page]/[with_page_mut] pin the
   frame under the mutex, release it, and run the callback under the
   latch.  On top of that, each frame carries an atomic version {e stamp}
   (seqlock discipline: even = stable, odd = a mutator is inside its
   exclusive latch), and [read_page] uses it for an optimistic latch-free
   read: snapshot the stamp, run the callback on the raw bytes with no
   latch, no pin, and no pool mutex, then re-validate the stamp.  An
   unchanged even stamp proves no mutation overlapped the read; any
   change forces a retry, bounded before falling back to the latched
   path.  OCaml's memory model makes the racy byte reads safe (no crash,
   no type confusion) — a torn decode yields garbage values or an
   exception, both of which the failed validation discards.

   A miss reads its page into the eviction victim's byte buffer (and
   keeps its latch), wrapped in a fresh frame record with a fresh stamp.
   The victim's record is dead-stamped before the first byte of the new
   page lands, so a reader still holding it can never validate the new
   bytes; see [new_frame]. *)
type frame = {
  pid : int;
  image : bytes;
  mutable dirty : bool;
  mutable pins : int;
      (** Active [with_page]/[with_page_mut] callbacks over this frame,
          updated under the pool mutex.  Pinned frames are never evicted:
          eviction would hand the active caller's bytes to another page
          (and a write-back would race the caller's mutations). *)
  latch : Latch.t;  (** Shared for reads, exclusive for mutations. *)
  stamp : int Atomic.t;
      (** Version stamp.  Even: stable; odd: being mutated.  Mutators bump
          it to odd before touching the bytes and back to even after, both
          inside the exclusive latch.  Eviction kills the frame by forcing
          the stamp odd forever, so a reader holding a stale frame can
          never validate: not pre-eviction bytes of a page reloaded and
          mutated elsewhere, and not another page read into the same
          buffer. *)
  mutable prev : frame;
  mutable next : frame;
}

type stats = {
  logical_reads : int;
  hits : int;
  misses : int;
  evictions : int;
  physical_writes : int;
  seq_writes : int;
  rand_writes : int;
  pin_waits : int;
  opt_reads : int;
  opt_retries : int;
  opt_fallbacks : int;
}

(* Stack-wide mirrors in the default observability registry (aggregated
   over every pool instance, gated on [Obs.enabled]).  The authoritative
   per-pool cells live in each pool's private registry below and count
   unconditionally: experiments compare by them with observability off. *)
let g_hits = Obs.Registry.counter "pool.hits"

let g_misses = Obs.Registry.counter "pool.misses"

let g_evictions = Obs.Registry.counter "pool.evictions"

let g_physical_writes = Obs.Registry.counter "pool.physical_writes"

let g_pin_waits = Obs.Registry.counter "pool.pin_waits"

let g_opt_retries = Obs.Registry.counter "pool.opt_retries"

let g_opt_fallbacks = Obs.Registry.counter "pool.opt_fallbacks"

(* Per-pool counter cells.  They live in one private [Obs.Registry.t] per
   pool, which makes [Registry.reset] the single reset path: [reset_stats]
   delegates to it and the [stats] accessors are thin reads of the same
   cells — the seq/rand write counters (and the write-head gauge) can no
   longer drift from the rest of the stats on reset. *)
type metrics = {
  registry : Obs.Registry.t;
  logical_reads : Obs.Counter.t;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  evictions : Obs.Counter.t;
  physical_writes : Obs.Counter.t;
  seq_writes : Obs.Counter.t;
  rand_writes : Obs.Counter.t;
  pin_waits : Obs.Counter.t;
  opt_reads : Obs.Counter.t;  (** Latch-free reads that validated. *)
  opt_retries : Obs.Counter.t;
      (** Optimistic attempts discarded (odd stamp, or changed between
          snapshot and validate). *)
  opt_fallbacks : Obs.Counter.t;
      (** Reads that exhausted their optimistic budget (or missed the
          resident map) and took the latched path. *)
  last_write : Obs.Gauge.t;
      (** Pid of this pool's last write-back; initial (and post-reset)
          value -1 puts the head just before page 0. *)
}

let make_metrics () =
  let registry = Obs.Registry.create () in
  {
    registry;
    logical_reads = Obs.Registry.counter ~registry "pool.logical_reads";
    hits = Obs.Registry.counter ~registry "pool.hits";
    misses = Obs.Registry.counter ~registry "pool.misses";
    evictions = Obs.Registry.counter ~registry "pool.evictions";
    physical_writes = Obs.Registry.counter ~registry "pool.physical_writes";
    seq_writes = Obs.Registry.counter ~registry "pool.seq_writes";
    rand_writes = Obs.Registry.counter ~registry "pool.rand_writes";
    pin_waits = Obs.Registry.counter ~registry "pool.pin_waits";
    opt_reads = Obs.Registry.counter ~registry "pool.opt_reads";
    opt_retries = Obs.Registry.counter ~registry "pool.opt_retries";
    opt_fallbacks = Obs.Registry.counter ~registry "pool.opt_fallbacks";
    last_write = Obs.Registry.gauge ~registry ~initial:(-1) "pool.last_write";
  }

type t = {
  disk : Disk.t;
  capacity : int;
  mu : Mutex.t;  (** Guards [frames], the recency list, pins, and the disk. *)
  frames : (int, frame) Hashtbl.t;
  map : frame option Atomic.t array Atomic.t;
      (** Lock-free resident map for the optimistic path, indexed by pid.
          Written only under the pool mutex (install, evict, drop_cache);
          read by any domain with no lock.  Grows by publishing a larger
          array that shares the existing cells, so readers holding the old
          array keep seeing updates; a pid beyond a reader's array simply
          misses to the latched path. *)
  nil : frame;  (** Sentinel: [nil.next] is the MRU frame, [nil.prev] the LRU. *)
  m : metrics;
}

let create ?(capacity = 64) disk =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity must be >= 1";
  let rec nil =
    {
      pid = -1;
      image = Bytes.empty;
      dirty = false;
      pins = 0;
      latch = Latch.create "nil";
      stamp = Atomic.make 1;  (* dead: never validates *)
      prev = nil;
      next = nil;
    }
  in
  {
    disk;
    capacity;
    mu = Mutex.create ();
    frames = Hashtbl.create capacity;
    map = Atomic.make (Array.init (max capacity 16) (fun _ -> Atomic.make None));
    nil;
    m = make_metrics ();
  }

let disk t = t.disk

let capacity t = t.capacity

(* ---------- lock-free resident map ---------- *)

(* Only called under the pool mutex, so there is exactly one grower. *)
let map_cell t pid =
  let arr = Atomic.get t.map in
  let arr =
    if pid < Array.length arr then arr
    else begin
      let n = ref (2 * Array.length arr) in
      while pid >= !n do
        n := 2 * !n
      done;
      let bigger =
        Array.init !n (fun i ->
            if i < Array.length arr then arr.(i) else Atomic.make None)
      in
      Atomic.set t.map bigger;
      bigger
    end
  in
  arr.(pid)

let map_lookup t pid =
  let arr = Atomic.get t.map in
  if pid < Array.length arr then Atomic.get arr.(pid) else None

let unlink frame =
  frame.prev.next <- frame.next;
  frame.next.prev <- frame.prev

let push_front t frame =
  frame.next <- t.nil.next;
  frame.prev <- t.nil;
  t.nil.next.prev <- frame;
  t.nil.next <- frame

let push_back t frame =
  frame.prev <- t.nil.prev;
  frame.next <- t.nil;
  t.nil.prev.next <- frame;
  t.nil.prev <- frame

let touch t frame =
  if t.nil.next != frame then begin
    unlink frame;
    push_front t frame
  end

(* The one physical write-back: the disk write and its accounting.  The
   caller holds the pool mutex and at least the frame's shared latch, and
   has checked [dirty]. *)
let write_frame t frame =
  Disk.write t.disk frame.pid frame.image;
  Obs.Counter.incr t.m.physical_writes;
  Obs.Counter.record g_physical_writes 1;
  let last = Obs.Gauge.get t.m.last_write in
  if frame.pid = last || frame.pid = last + 1 then Obs.Counter.incr t.m.seq_writes
  else Obs.Counter.incr t.m.rand_writes;
  Obs.Gauge.set t.m.last_write frame.pid;
  frame.dirty <- false

(* A write-back must not race the frame's mutator: without the frame latch
   it could push a half-written image to disk and — worse — clear [dirty]
   over a mutation that lands just after the copy, silently losing the
   update at the next clean eviction.  The shared latch is taken with
   [try_shared]: an active mutator means the frame's contents are not a
   committed state yet, so skipping it (leaving [dirty] set for the next
   flush or eviction) is both safe and the only deadlock-free option while
   the pool mutex is held. *)
let write_back t frame =
  if frame.dirty && Latch.try_shared frame.latch then
    Fun.protect
      ~finally:(fun () -> Latch.release_shared frame.latch)
      (fun () -> if frame.dirty then write_frame t frame)

(* Walk tail -> head for the least-recently-used unpinned frame.  Pinned
   frames (a [with_page]* callback is live over their bytes) must stay
   resident; if every frame is pinned the pool is over-committed and we
   fail loudly instead of corrupting the active caller.  Returns the dead
   victim, whose buffer and latch the caller reuses. *)
let evict_lru t =
  let rec victim f =
    if f == t.nil then
      failwith
        (Printf.sprintf "Buffer_pool: all %d frames pinned, cannot evict" t.capacity)
    else if f.pins = 0 then f
    else begin
      Obs.Counter.incr t.m.pin_waits;
      Obs.Counter.record g_pin_waits 1;
      victim f.prev
    end
  in
  let v = victim t.nil.prev in
  write_back t v;
  unlink v;
  Hashtbl.remove t.frames v.pid;
  (* Kill the frame for optimistic readers {e before} its page can be
     reloaded (install runs under this same mutex): force the stamp odd,
     permanently.  A reader that snapshotted the old even stamp and
     validates after this point retries; one that validated before read
     pre-eviction bytes, which still equal the page's committed content.
     Without the kill, a reload-and-mutate through a fresh frame would
     leave this frame's stamp even and its stale bytes "valid". *)
  Atomic.set v.stamp (Atomic.get v.stamp lor 1);
  Atomic.set (map_cell t v.pid) None;
  Obs.Counter.incr t.m.evictions;
  Obs.Counter.record g_evictions 1;
  v

(* A frame for [pid], not yet linked or published.  While the pool has a
   free frame it gets a fresh buffer; otherwise it takes over the LRU
   victim's buffer and latch.  [evict_lru] has by then written the victim
   back and dead-stamped it (odd forever) and cleared its map cell, and
   the caller writes the new page into the buffer only after this
   returns.  So an optimistic reader still holding the victim either
   validated before the kill — and read the victim's own page — or sees
   an odd stamp at validation and retries through the map, which no
   longer leads to the victim (DESIGN.md §12).  The latch is free: the
   victim was unpinned, and every latch holder pins first (or holds the
   pool mutex, as [write_back] does). *)
let new_frame t pid =
  let image, latch =
    if Hashtbl.length t.frames < t.capacity then
      (Bytes.create (Disk.page_size t.disk), Latch.create "frame")
    else
      let v = evict_lru t in
      (v.image, v.latch)
  in
  { pid; image; dirty = false; pins = 0; latch; stamp = Atomic.make 0; prev = t.nil; next = t.nil }

(* Link a filled frame in and publish it to optimistic readers.  [cold]
   puts it at the LRU end, so it is the next victim: a large scan's pages
   then recycle one frame instead of flushing the pool. *)
let install t ~cold frame =
  if cold then push_back t frame else push_front t frame;
  Hashtbl.add t.frames frame.pid frame;
  Atomic.set (map_cell t frame.pid) (Some frame)

(* On a failed read ([Disk.Crash], [Disk.Corrupt_page]) the new frame is
   dropped unlinked: the victim is gone (written back first, so nothing
   is lost), the pool has one free frame, and the next read of [pid]
   repeats the disk read and its error. *)
let load t ~cold pid =
  Obs.Counter.incr t.m.logical_reads;
  match Hashtbl.find_opt t.frames pid with
  | Some frame ->
    Obs.Counter.incr t.m.hits;
    Obs.Counter.record g_hits 1;
    touch t frame;
    frame
  | None ->
    Obs.Counter.incr t.m.misses;
    Obs.Counter.record g_misses 1;
    let frame = new_frame t pid in
    Disk.read_into t.disk pid frame.image;
    install t ~cold frame;
    frame

let alloc_page t =
  Sched.yield ();
  Mutex.protect t.mu @@ fun () ->
  let pid = Disk.alloc t.disk in
  let frame = new_frame t pid in
  Bytes.fill frame.image 0 (Bytes.length frame.image) '\000';
  install t ~cold:false frame;
  pid

(* Pin under the pool mutex, run the callback under the frame latch with
   the mutex released, unpin under the mutex again.  The pin keeps the
   frame resident (and its latch meaningful) for exactly the callback's
   lifetime; the latch mode decides reader concurrency on the bytes.
   [dirty] is set inside the exclusive latch, not at pin time: a
   concurrent [write_back] holds the shared latch while it tests-and-
   clears the flag, so latch exclusion is what keeps a mutation from ever
   sitting under a cleared flag. *)
let pinned t ~exclusive ~cold pid f =
  Sched.yield ();
  let frame =
    Mutex.protect t.mu (fun () ->
        let frame = load t ~cold pid in
        frame.pins <- frame.pins + 1;
        frame)
  in
  Fun.protect
    ~finally:(fun () -> Mutex.protect t.mu (fun () -> frame.pins <- frame.pins - 1))
    (fun () ->
      if exclusive then
        Latch.with_latch frame.latch (fun () ->
            (* Seqlock write side: odd while the bytes are in flux, back to
               even (two higher) when stable again.  Both bumps happen
               inside the exclusive latch, so stamp parity exactly tracks
               "a mutator may be mid-write".  The closing bump runs even if
               [f] raises — a half-applied mutation must not leave the
               stamp odd forever (the heap layer treats such exceptions as
               aborts and the page as garbage until rewritten), but it
               {e does} leave the stamp changed, so any overlapping
               optimistic read is discarded. *)
            Atomic.incr frame.stamp;
            Fun.protect
              ~finally:(fun () -> Atomic.incr frame.stamp)
              (fun () ->
                frame.dirty <- true;
                f frame.image))
      else Latch.with_shared frame.latch (fun () -> f frame.image))

let with_page t pid f = pinned t ~exclusive:false ~cold:false pid f

let with_page_mut t pid f = pinned t ~exclusive:true ~cold:false pid f

(* How many optimistic attempts before conceding to the latched path.  A
   retry is cheap (no lock traffic), but under a continuously mutating
   page the latched path is the only guaranteed progress, so the budget
   stays small. *)
let max_optimistic_attempts = 3

(* The latch-free read.  No pool mutex, no pin, no latch: look the frame
   up in the lock-free resident map, snapshot its stamp, run [f] on the
   raw bytes, and validate that the stamp has not moved.  The [Sched.yield]
   calls bracket the racy section so the deterministic interleaving
   harness can force a mutator between snapshot and validate.

   [f] may run over bytes mid-mutation, so it must be pure with respect to
   external state: it can be re-run after a failed validation, and any
   value it returned — or exception it raised — during an invalidated
   attempt is discarded, never surfaced.  The caller sees only results
   produced by an attempt whose stamp validated (or by the latched
   fallback).

   A validated optimistic read counts one [logical_read] and one [hit]
   (it can only succeed against a resident frame), keeping
   [hits + misses = logical_reads] and the compiled-vs-interpreted I/O
   parity intact; it deliberately skips the LRU touch — recency
   maintenance is what the mutex was protecting, and hot pages are kept
   resident by the misses and mutations that do touch.  [cold] only
   decides where a miss's frame enters the recency list. *)
let optimistic_fallback t ~cold pid f =
  Obs.Counter.incr t.m.opt_fallbacks;
  Obs.Counter.record g_opt_fallbacks 1;
  pinned t ~exclusive:false ~cold pid f

let optimistic_retry t =
  Obs.Counter.incr t.m.opt_retries;
  Obs.Counter.record g_opt_retries 1

(* Top-level rather than local closures: every page read of a refresh or
   a scan comes through here, and local helpers would be allocated per
   call. *)
let rec optimistic_attempt t ~cold pid f n =
  if n >= max_optimistic_attempts then optimistic_fallback t ~cold pid f
  else
    match map_lookup t pid with
    | None -> optimistic_fallback t ~cold pid f  (* not resident: the miss needs the mutex + disk *)
    | Some frame ->
      Sched.yield ();
      let s0 = Atomic.get frame.stamp in
      if s0 land 1 = 1 then begin
        (* A mutator is mid-write (or the frame was evicted): reading
           now could only be wasted work. *)
        optimistic_retry t;
        optimistic_attempt t ~cold pid f (n + 1)
      end
      else begin
        let result = match f frame.image with v -> Ok v | exception e -> Error e in
        Sched.yield ();
        if Atomic.get frame.stamp = s0 then begin
          Obs.Counter.incr t.m.logical_reads;
          Obs.Counter.incr t.m.hits;
          Obs.Counter.record g_hits 1;
          Obs.Counter.incr t.m.opt_reads;
          match result with Ok v -> v | Error e -> raise e
        end
        else begin
          optimistic_retry t;
          optimistic_attempt t ~cold pid f (n + 1)
        end
      end

let optimistic t ~cold pid f = optimistic_attempt t ~cold pid f 0

let read_page t pid f = optimistic t ~cold:false pid f

let scan_page t pid f = optimistic t ~cold:true pid f

(* Dirty frames are written back in ascending pid order: deterministic
   (Hashtbl iteration order used to decide it) and sequential on disk.
   Runs under the pool mutex; a frame whose mutator is still inside its
   exclusive latch is skipped by [write_back] and stays dirty for the next
   flush or eviction.  The maintenance flow is unaffected: its own writes
   have released their latches by the time it flushes. *)
let flush_all t =
  Sched.yield ();
  Mutex.protect t.mu @@ fun () ->
  let dirty = ref [] in
  Hashtbl.iter (fun _ frame -> if frame.dirty then dirty := frame :: !dirty) t.frames;
  List.iter (write_back t) (List.sort (fun a b -> compare a.pid b.pid) !dirty)

(* Targeted, {e blocking} write-back for the pipelined maintenance path.
   [flush_all]'s skip-on-active-mutator rule is correct for a full sweep
   (the frame stays dirty for the next flush) but not for a durability
   point: a concurrent applier from another partition holding a boundary
   page's latch would let this partition publish with one of its own pages
   still volatile.  So each target page is pinned (under the mutex, so it
   cannot be evicted out from under us), then the shared latch is acquired
   {e blocking} — waiting out any mutator — and the write happens back
   under the mutex (all disk traffic stays mutex-serialized).  Lock order
   is latch -> mutex, which cannot deadlock: no mutex critical section in
   this module blocks on a latch ([write_back] uses [try_shared]). *)
let flush_pages t pids =
  Sched.yield ();
  let flush_one pid =
    let frame =
      Mutex.protect t.mu (fun () ->
          match Hashtbl.find_opt t.frames pid with
          | Some frame when frame.dirty ->
            frame.pins <- frame.pins + 1;
            Some frame
          | Some _ | None -> None)
    in
    match frame with
    | None -> () (* Not resident (write-back already happened) or clean. *)
    | Some frame ->
      Fun.protect
        ~finally:(fun () -> Mutex.protect t.mu (fun () -> frame.pins <- frame.pins - 1))
        (fun () ->
          Latch.with_shared frame.latch (fun () ->
              Mutex.protect t.mu (fun () -> if frame.dirty then write_frame t frame)))
  in
  List.iter flush_one (List.sort_uniq Int.compare pids)

let stats t =
  {
    logical_reads = Obs.Counter.get t.m.logical_reads;
    hits = Obs.Counter.get t.m.hits;
    misses = Obs.Counter.get t.m.misses;
    evictions = Obs.Counter.get t.m.evictions;
    physical_writes = Obs.Counter.get t.m.physical_writes;
    seq_writes = Obs.Counter.get t.m.seq_writes;
    rand_writes = Obs.Counter.get t.m.rand_writes;
    pin_waits = Obs.Counter.get t.m.pin_waits;
    opt_reads = Obs.Counter.get t.m.opt_reads;
    opt_retries = Obs.Counter.get t.m.opt_retries;
    opt_fallbacks = Obs.Counter.get t.m.opt_fallbacks;
  }

let metrics_registry t = t.m.registry

let reset_stats t =
  (* One reset path: every pool cell — including the seq/rand split and
     the write-head gauge, which earlier revisions reset by hand — goes
     through the pool's registry, so nothing can be missed. *)
  Obs.Registry.reset t.m.registry;
  Disk.reset_stats t.disk

let drop_cache t =
  flush_all t;
  Mutex.protect t.mu @@ fun () ->
  Hashtbl.iter
    (fun pid frame ->
      (* Same kill as eviction: the dropped frames must never validate. *)
      Atomic.set frame.stamp (Atomic.get frame.stamp lor 1);
      Atomic.set (map_cell t pid) None)
    t.frames;
  Hashtbl.reset t.frames;
  t.nil.next <- t.nil;
  t.nil.prev <- t.nil

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "logical=%d hits=%d misses=%d evictions=%d phys_writes=%d (%d seq / %d rand) \
     opt=%d (%d retries / %d fallbacks)"
    s.logical_reads s.hits s.misses s.evictions s.physical_writes s.seq_writes
    s.rand_writes s.opt_reads s.opt_retries s.opt_fallbacks
