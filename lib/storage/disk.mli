(** Simulated disk.

    A disk is an in-memory array of fixed-size page images with physical I/O
    counters.  The paper's §6 cost comparison between 2VNL and MV2PL is
    framed in terms of the number of I/Os readers and the maintenance
    transaction incur; these counters (surfaced through the buffer pool) are
    what the IO experiment reports.

    For the §7 durability story the disk additionally models media behavior:
    each page carries a CRC-32 of its last {e completed} write (the sector
    checksum a real drive maintains), and a deterministic fault policy can
    crash the machine at the k-th physical write — optionally applying only
    a prefix of the page image, a torn write.  A torn page is detected on
    the next read via the checksum rather than silently decoded. *)

type t

type stats = {
  reads : int;
  writes : int;
  seq_writes : int;
      (** Writes to the page following (or equal to) the previously written
          one — no seek.  Page-ordered batched apply turns most maintenance
          write-back into these.  [reset_stats] re-positions the head before
          page 0, so the first post-reset write is sequential iff it lands
          on page 0. *)
  rand_writes : int;  (** Writes that moved the head: [writes - seq_writes]. *)
  last_write : int;  (** Page of the latest write, a crashing one included; [-1] if none. *)
  allocations : int;
}

exception Crash of string
(** An injected fault fired: the simulated machine lost power mid-write, or
    a read hit injected media failure.  The disk object survives (it is the
    platter); in-memory state above it is considered lost. *)

exception Corrupt_page of { pid : int; stored : int; computed : int }
(** Raised by {!read} when the page image does not match its checksum —
    the signature of a torn write. *)

type fault = {
  crash_at_write : int option;
      (** Crash on the k-th physical write (1-based, counted since
          {!set_faults}).  [None] disables crashing. *)
  torn_prefix : int;
      (** Bytes of the crashing write that reach the platter (clamped to
          [0, page_size]).  [0] = the write never happened; [page_size] =
          the write completed (checksum included) just before the crash;
          anything between is a torn write, detectable by checksum. *)
  fail_read_pids : int list;  (** Reads of these pages raise {!Crash}. *)
}

val no_faults : fault

val create : ?page_size:int -> ?checksums:bool -> unit -> t
(** [create ()] makes an empty disk; [page_size] defaults to 4096 bytes.
    [checksums] (default [true]) controls whether writes maintain and reads
    verify per-page CRC-32s; disable it only to measure the overhead. *)

val page_size : t -> int

val page_count : t -> int
(** Number of allocated pages. *)

val checksums_enabled : t -> bool

val alloc : t -> int
(** Allocate a zeroed page; returns its page id. *)

val read : t -> int -> bytes
(** [read t pid] returns a copy of the page image and counts one physical
    read.  Raises [Invalid_argument] on unallocated ids, {!Corrupt_page}
    when the checksum does not match (torn write), and {!Crash} when the
    fault policy injects a read failure for this page. *)

val read_into : t -> int -> bytes -> unit
(** [read_into t pid dst] is {!read} into a caller-owned buffer: the same
    fault check, read count and checksum verification, then the page image
    is copied into [dst].  [dst] is written only after every check has
    passed, so on any exception it is untouched.  Raises
    [Invalid_argument] unless [dst] is exactly [page_size] bytes.  The
    buffer pool reads a miss into its eviction victim's bytes this way. *)

val write : t -> int -> bytes -> unit
(** [write t pid img] replaces the page image and counts one physical
    write.  [img] must be exactly [page_size] bytes.  The image is copied
    into the disk's own bytes for the page, so the call allocates nothing
    and the caller may reuse [img] at once.  Raises {!Crash} when the fault
    policy's write count is reached, after applying [torn_prefix] bytes of
    the image. *)

val verify : t -> int -> bool
(** [verify t pid] checks the page against its checksum without counting a
    read; always [true] when checksums are disabled. *)

val set_faults : t -> fault -> unit
(** Arm a fault policy; the write counter restarts at zero.  Policies are
    deterministic: the same policy over the same write sequence crashes at
    the same point with the same torn image. *)

val clear_faults : t -> unit

val clone : t -> t
(** Deep-copy the platter state (pages, checksums, counters) with no fault
    policy armed.  Crash sweeps clone the pre-transaction image once and
    replay the transaction against a fresh clone per crash point. *)

val stats : t -> stats

val reset_stats : t -> unit
(** Zero the counters (including the sequential-write head position); page
    contents are untouched. *)

val pp_stats : Format.formatter -> stats -> unit
