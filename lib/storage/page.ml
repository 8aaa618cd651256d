type layout = {
  page_size : int;
  record_width : int;
  slots : int;
  flags_offset : int;
  records_offset : int;
}

let header_size = 4

let layout ~page_size ~record_width =
  if record_width <= 0 then invalid_arg "Page.layout: record width must be positive";
  let slots = (page_size - header_size) / (record_width + 1) in
  if slots < 1 then invalid_arg "Page.layout: record too large for page";
  {
    page_size;
    record_width;
    slots;
    flags_offset = header_size;
    records_offset = header_size + slots;
  }

let init l page = Bytes.fill page 0 l.page_size '\000'

let check_slot l slot =
  if slot < 0 || slot >= l.slots then
    invalid_arg (Printf.sprintf "Page: slot %d out of range (page has %d)" slot l.slots)

let slot_used l page slot =
  check_slot l slot;
  Bytes.get page (l.flags_offset + slot) = '\001'

let record_offset l slot = l.records_offset + (slot * l.record_width)

let read_slot l page slot =
  if not (slot_used l page slot) then
    invalid_arg (Printf.sprintf "Page.read_slot: slot %d is free" slot);
  Bytes.sub page (record_offset l slot) l.record_width

(* The flag goes up only after [write] returns: a writer that rejects its
   record before touching the page leaves a free slot free. *)
let write_slot_with l page slot write =
  check_slot l slot;
  write page (record_offset l slot);
  Bytes.set page (l.flags_offset + slot) '\001'

let clear_slot l page slot =
  check_slot l slot;
  Bytes.set page (l.flags_offset + slot) '\000'

let first_free_slot ?(from = 0) l page =
  let rec loop slot =
    if slot >= l.slots then None
    else if Bytes.get page (l.flags_offset + slot) = '\000' then Some slot
    else loop (slot + 1)
  in
  loop from

let used_count l page =
  let count = ref 0 in
  for slot = 0 to l.slots - 1 do
    if Bytes.get page (l.flags_offset + slot) = '\001' then incr count
  done;
  !count

let iter_used_offsets l page f =
  for slot = 0 to l.slots - 1 do
    if Bytes.get page (l.flags_offset + slot) = '\001' then f slot (record_offset l slot)
  done

let rev_iter_used_offsets l page f =
  for slot = l.slots - 1 downto 0 do
    if Bytes.get page (l.flags_offset + slot) = '\001' then f slot (record_offset l slot)
  done
