(** Dependency-aware partitioning for pipelined maintenance.

    [partition] splits one relation's refresh changes into partitions that
    are safe to apply concurrently on worker domains:

    - {b key-disjoint}: a unique key's every change lands in the same
      partition (so no tuple is written by two workers);
    - {b footprint-disjoint}: two partitions never touch the same secondary
      index.  A change's footprint comes from its probe: a present key is
      written in place, which touches every index over a non-key attribute,
      and an absent key is a fresh insert, which touches every index.
      Partitions sharing a touched index are merged (the in-memory
      secondary B+-trees take no latches, so tree exclusivity {e is} the
      safety argument);
    - {b order-preserving}: each partition is a stable filter of the input,
      so a forced single partition is the input verbatim.

    Keyless relations (no key to split on) and [max_parts <= 1] produce
    one partition.  Partitioning is deterministic: the same inputs yield
    the same partitions, which the crash-recovery sweep and the
    byte-identity differential tests rely on. *)

type partition = { changes : Batch.change list; op_count : int }

val partition :
  Schema_ext.t ->
  Vnl_query.Table.t ->
  max_parts:int ->
  Batch.change list ->
  partition list
(** Split the changes into at most [max_parts] concurrency-safe partitions
    (fewer when merging or the key distribution demands it; [[]] for no
    changes). *)
