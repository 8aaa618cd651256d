(* Page checksums.

   Two generations live here.  [crc32_ieee] is the original byte-at-a-time
   CRC-32 (IEEE 802.3, polynomial 0xedb88320) the disk used through PR 5:
   one table lookup per byte, with a serial dependency through the
   accumulator, which priced page writes at ~14x the raw copy
   (BENCH_recovery.json checksum_overhead).  [crc32c] replaces it:
   CRC-32C (Castagnoli, polynomial 0x82f63b78 — better error-detection
   properties and the polynomial hardware CRC instructions implement) with
   the slicing-by-8 technique: eight 256-entry tables let one iteration
   fold eight input bytes, turning the per-byte dependency chain into
   eight independent lookups the CPU pipelines.

   Table [k] maps a byte to its CRC contribution from [k] positions back,
   built by the recurrence [table.(k).(b) = t0 (table.(k-1).(b) land 0xff)
   lxor (table.(k-1).(b) lsr 8)] — shifting a byte's influence one more
   octet down the message.  All arithmetic is on nonnegative 32-bit values
   in OCaml ints, so [lsr] is the unsigned shift the algorithm needs. *)

let make_byte_table poly =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let ieee_table = lazy (make_byte_table 0xedb88320)

let crc32_ieee img =
  let table = Lazy.force ieee_table in
  let c = ref 0xffffffff in
  for i = 0 to Bytes.length img - 1 do
    (* The index is masked to [0, 255], so the table access needs no check. *)
    c :=
      Array.unsafe_get table ((!c lxor Char.code (Bytes.unsafe_get img i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let castagnoli_tables =
  lazy
    (let t0 = make_byte_table 0x82f63b78 in
     let tables = Array.make 8 t0 in
     for k = 1 to 7 do
       let prev = tables.(k - 1) in
       tables.(k) <-
         Array.init 256 (fun b ->
             let p = prev.(b) in
             t0.(p land 0xff) lxor (p lsr 8))
     done;
     tables)

(* The byte-at-a-time CRC-32C: the reference the slicing implementation is
   differentially tested against, and the tail loop of [crc32c] itself. *)
let crc32c_update_bytewise table c img ~pos ~len =
  let c = ref c in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (Bytes.unsafe_get img i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c

let crc32c_bytewise img =
  let tables = Lazy.force castagnoli_tables in
  crc32c_update_bytewise tables.(0) 0xffffffff img ~pos:0 ~len:(Bytes.length img)
  lxor 0xffffffff

let crc32c_sliced img =
  let tables = Lazy.force castagnoli_tables in
  let t0 = Array.unsafe_get tables 0
  and t1 = Array.unsafe_get tables 1
  and t2 = Array.unsafe_get tables 2
  and t3 = Array.unsafe_get tables 3
  and t4 = Array.unsafe_get tables 4
  and t5 = Array.unsafe_get tables 5
  and t6 = Array.unsafe_get tables 6
  and t7 = Array.unsafe_get tables 7 in
  let len = Bytes.length img in
  let c = ref 0xffffffff in
  let i = ref 0 in
  let byte k = Char.code (Bytes.unsafe_get img (!i + k)) in
  while !i + 8 <= len do
    (* Fold the accumulator into the first four bytes, then combine the
       eight per-position contributions: t7 covers the byte farthest from
       the end of the block, t0 the nearest. *)
    let x = !c in
    c :=
      Array.unsafe_get t7 ((x lxor byte 0) land 0xff)
      lxor Array.unsafe_get t6 (((x lsr 8) lxor byte 1) land 0xff)
      lxor Array.unsafe_get t5 (((x lsr 16) lxor byte 2) land 0xff)
      lxor Array.unsafe_get t4 (((x lsr 24) lxor byte 3) land 0xff)
      lxor Array.unsafe_get t3 (byte 4)
      lxor Array.unsafe_get t2 (byte 5)
      lxor Array.unsafe_get t1 (byte 6)
      lxor Array.unsafe_get t0 (byte 7);
    i := !i + 8
  done;
  crc32c_update_bytewise t0 !c img ~pos:!i ~len:(len - !i) lxor 0xffffffff

external hardware_available : unit -> bool = "vnl_crc32c_hw_available" [@@noalloc]

external crc32c_hw : bytes -> int = "vnl_crc32c_hw" [@@noalloc]

let hardware = hardware_available ()

let crc32c = if hardware then crc32c_hw else crc32c_sliced
