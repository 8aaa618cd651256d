(** Page checksums.

    [crc32c] is the production checksum: CRC-32C (Castagnoli polynomial).
    It runs on the SSE4.2 [crc32] instruction when the CPU has it
    ({!hardware}) and on {!crc32c_sliced} otherwise; both compute the same
    function, so stored sums do not depend on the path.  [crc32c_sliced]
    is slicing-by-8 — one loop iteration folds eight bytes through eight
    precomputed tables, breaking the per-byte dependency chain of the
    classic table-driven loop.  [crc32c_bytewise] is the byte-at-a-time
    oracle both fast paths are checked against.  [crc32_ieee] is the
    previous generation (byte-at-a-time CRC-32, IEEE polynomial), kept as
    the reference side of the differential torn-page tests. *)

val crc32c : bytes -> int
(** CRC-32C of the whole buffer, on the fastest path this CPU has.
    [crc32c (Bytes.of_string "123456789") = 0xE3069283]. *)

val hardware : bool
(** Whether {!crc32c} runs on the SSE4.2 instruction (decided once, at
    start-up, from the CPU's feature flags). *)

val crc32c_hw : bytes -> int
(** The C stub behind {!crc32c} on SSE4.2 hosts.  Callable everywhere:
    without SSE4.2 it falls back to a bitwise C loop, so the differential
    tests can exercise it on any CPU. *)

val crc32c_sliced : bytes -> int
(** Slicing-by-8 CRC-32C in OCaml: {!crc32c} on CPUs without SSE4.2. *)

val crc32c_bytewise : bytes -> int
(** Byte-at-a-time CRC-32C; same function as {!crc32c}, used as the
    differential oracle. *)

val crc32_ieee : bytes -> int
(** The previous checksum (CRC-32, polynomial 0xedb88320), byte-at-a-time. *)
