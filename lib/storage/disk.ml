module Obs = Vnl_obs.Obs

(* Stack-wide mirrors in the default observability registry, aggregated
   across every disk instance; gated on [Obs.enabled].  The per-instance
   counters below stay unconditional — experiments compare by them with
   observability off. *)
let m_reads = Obs.Registry.counter "disk.reads"

let m_writes = Obs.Registry.counter "disk.writes"

let m_allocs = Obs.Registry.counter "disk.allocs"

let m_crashes = Obs.Registry.counter "disk.crashes"

let m_checksum_failures = Obs.Registry.counter "disk.checksum_failures"

type stats = {
  reads : int;
  writes : int;
  seq_writes : int;
  rand_writes : int;
  last_write : int;
  allocations : int;
}

exception Crash of string

exception Corrupt_page of { pid : int; stored : int; computed : int }

type fault = {
  crash_at_write : int option;
  torn_prefix : int;
  fail_read_pids : int list;
}

let no_faults = { crash_at_write = None; torn_prefix = 0; fail_read_pids = [] }

type t = {
  page_size : int;
  checksums : bool;
  mutable pages : bytes array;
  mutable sums : int array;
      (** Per-page CRC-32C of the last {e completed} write (the on-platter
          sector CRC).  A torn write updates the image prefix but not the
          checksum, which is how the tear is detected on the next read. *)
  mutable used : int;
  mutable reads : int;
  mutable writes : int;
  mutable seq_writes : int;
  mutable rand_writes : int;
  mutable last_write : int;  (** Pid of the most recent write, -1 initially. *)
  mutable allocations : int;
  mutable fault : fault;
  mutable fault_writes : int;  (** Physical writes since the policy was armed. *)
}

(* Sector checksum: CRC-32C, in hardware where the CPU has it (see [Crc]).
   Checksums live only in memory, so swapping the polynomial has no
   persistence-format cost. *)
let crc32 = Crc.crc32c

let create ?(page_size = 4096) ?(checksums = true) () =
  {
    page_size;
    checksums;
    pages = Array.make 16 Bytes.empty;
    sums = Array.make 16 0;
    used = 0;
    reads = 0;
    writes = 0;
    seq_writes = 0;
    rand_writes = 0;
    last_write = -1;
    allocations = 0;
    fault = no_faults;
    fault_writes = 0;
  }

let page_size t = t.page_size

let page_count t = t.used

let checksums_enabled t = t.checksums

let ensure_capacity t =
  if t.used >= Array.length t.pages then begin
    let n = 2 * Array.length t.pages in
    let bigger = Array.make n Bytes.empty in
    Array.blit t.pages 0 bigger 0 t.used;
    t.pages <- bigger;
    let sums = Array.make n 0 in
    Array.blit t.sums 0 sums 0 t.used;
    t.sums <- sums
  end

let alloc t =
  ensure_capacity t;
  let pid = t.used in
  let img = Bytes.make t.page_size '\000' in
  t.pages.(pid) <- img;
  if t.checksums then t.sums.(pid) <- crc32 img;
  t.used <- t.used + 1;
  t.allocations <- t.allocations + 1;
  if !Obs.enabled then Obs.Counter.incr m_allocs;
  pid

let check t pid =
  if pid < 0 || pid >= t.used then
    invalid_arg (Printf.sprintf "Disk: page %d not allocated (have %d)" pid t.used)

let read_into t pid dst =
  check t pid;
  if Bytes.length dst <> t.page_size then invalid_arg "Disk.read_into: buffer size mismatch";
  if List.mem pid t.fault.fail_read_pids then begin
    if !Obs.enabled then Obs.Counter.incr m_crashes;
    raise (Crash (Printf.sprintf "injected read failure on page %d" pid))
  end;
  t.reads <- t.reads + 1;
  if !Obs.enabled then Obs.Counter.incr m_reads;
  let img = t.pages.(pid) in
  (* Verify the platter image before touching [dst]: a failed read leaves
     the caller's buffer exactly as it was. *)
  if t.checksums then begin
    let computed = crc32 img in
    if computed <> t.sums.(pid) then begin
      if !Obs.enabled then Obs.Counter.incr m_checksum_failures;
      raise (Corrupt_page { pid; stored = t.sums.(pid); computed })
    end
  end;
  Bytes.blit img 0 dst 0 t.page_size

let read t pid =
  let dst = Bytes.create t.page_size in
  read_into t pid dst;
  dst

(* A write is sequential when the head is already positioned: the page
   follows (or repeats) the previously written one.  Anything else pays a
   seek and counts as random — what the page-ordered batched apply is
   designed to avoid.

   The image is copied into the page's existing bytes rather than into a
   fresh copy: a 4 KiB block is past the minor heap's size limit, so a
   fresh copy per physical write would be a major-heap allocation, and the
   block it replaced garbage for the sweeper.  Overwriting in place is safe
   because no page image ever leaves this module: [read] and [read_into]
   copy out, [clone] deep-copies, and every caller already serializes disk
   traffic under the buffer pool's mutex. *)
let write t pid img =
  check t pid;
  if Bytes.length img <> t.page_size then
    invalid_arg "Disk.write: image size mismatch";
  t.writes <- t.writes + 1;
  if !Obs.enabled then Obs.Counter.incr m_writes;
  if pid = t.last_write || pid = t.last_write + 1 then
    t.seq_writes <- t.seq_writes + 1
  else t.rand_writes <- t.rand_writes + 1;
  t.last_write <- pid;
  t.fault_writes <- t.fault_writes + 1;
  (match t.fault.crash_at_write with
  | Some k when t.fault_writes >= k ->
    (* The power fails during this write: only the first [torn_prefix]
       bytes of the new image reach the platter, and the sector checksum —
       written by the drive at the end of a completed write — keeps
       describing the previous image.  [torn_prefix = 0] models a crash
       before the write; [torn_prefix = page_size] a crash just after it
       completed (checksum included). *)
    let prefix = max 0 (min t.fault.torn_prefix t.page_size) in
    Bytes.blit img 0 t.pages.(pid) 0 prefix;
    if prefix = t.page_size && t.checksums then t.sums.(pid) <- crc32 img;
    if !Obs.enabled then Obs.Counter.incr m_crashes;
    raise (Crash (Printf.sprintf "injected crash at write %d (page %d, %d/%d bytes applied)"
                    t.fault_writes pid prefix t.page_size))
  | Some _ | None -> ());
  Bytes.blit img 0 t.pages.(pid) 0 t.page_size;
  if t.checksums then t.sums.(pid) <- crc32 img

let verify t pid =
  check t pid;
  (not t.checksums) || crc32 t.pages.(pid) = t.sums.(pid)

let set_faults t fault =
  t.fault <- fault;
  t.fault_writes <- 0

let clear_faults t = set_faults t no_faults

let clone t =
  {
    t with
    pages = Array.map Bytes.copy t.pages;
    sums = Array.copy t.sums;
    fault = no_faults;
    fault_writes = 0;
  }

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    seq_writes = t.seq_writes;
    rand_writes = t.rand_writes;
    last_write = t.last_write;
    allocations = t.allocations;
  }

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.seq_writes <- 0;
  t.rand_writes <- 0;
  t.last_write <- -1;
  t.allocations <- 0

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "reads=%d writes=%d (%d seq / %d rand) allocs=%d" s.reads s.writes
    s.seq_writes s.rand_writes s.allocations
