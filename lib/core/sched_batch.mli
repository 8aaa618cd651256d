(** Dependency-aware batch partitioning for pipelined maintenance.

    [partition] splits one relation's net-effect batch into partitions that
    are safe to fold and apply concurrently on worker domains:

    - {b key-disjoint}: a unique key's every operation lands in the same
      partition (so net-effect folding inside a partition sees the key's
      full history, and no tuple is written by two workers);
    - {b footprint-disjoint}: two partitions never touch the same secondary
      index — an update assigning an indexed attribute, and every
      structural insert/delete, "touches" each index over those attributes,
      and partitions sharing a touched index are merged (the in-memory
      secondary B+-trees take no latches, so tree exclusivity {e is} the
      safety argument);
    - {b order-preserving}: each partition is a stable filter of the input,
      so per-key operation order is intact and a forced single partition is
      the original batch verbatim.

    Keyless relations (no key to net over, insert order matters) and
    [max_parts <= 1] produce one partition.  Partitioning is deterministic:
    the same inputs yield the same partitions, which the crash-recovery
    sweep and the byte-identity differential tests rely on. *)

type partition = {
  ops : Batch.op list;
  positions : int array;
      (** Input position of each of [ops], ascending: what a caller holding
          per-operation data aligned with the input (e.g.
          {!Batch.stage}'s [resolved]) needs to split it the same way. *)
  op_count : int;
}

val partition :
  Schema_ext.t ->
  Vnl_query.Table.t ->
  max_parts:int ->
  Batch.op list ->
  partition list
(** Split [ops] into at most [max_parts] concurrency-safe partitions
    (fewer when merging or the key distribution demands it; [[]] for an
    empty batch). *)
