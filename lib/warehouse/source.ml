module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value

(* Rows sit in [rows.(0 .. len - 1)] in arrival order.  A deleted row stays
   in its slot as a tombstone ([alive] byte '\000') until compaction, so a
   delete moves nothing and the surviving order is the arrival order.

   Equal live rows form a stack, newest on top: [index] is an open-addressed
   (linear probing) table whose entries are the newest live slot of each
   distinct row, or -1 when empty, and [below.(s)] is the slot of the next
   older live row equal to slot [s] (-1 at the bottom).  A delete always
   takes the top, so [below] never points at a tombstone.  [hashes.(s)]
   caches [Tuple.hash rows.(s)] for probing, resizing and compaction.

   The undo log records one int per change applied in the current batch:
   [s] for an insert into slot [s], [lnot s] for a delete from slot [s].
   Growing the arrays keeps every slot where it is and compaction only runs
   after a batch succeeds, so the log's slots stay valid for the rollback. *)
type t = {
  schema : Schema.t;
  mutable rows : Tuple.t array;
  mutable hashes : int array;
  mutable below : int array;
  mutable alive : Bytes.t;
  mutable len : int;  (** Slots used, live or tombstoned. *)
  mutable live : int;
  mutable index : int array;  (** Power-of-two length, at most half full. *)
  mutable distinct : int;  (** Occupied [index] entries. *)
  mutable undo : int array;
  mutable undo_len : int;
}

let empty_row : Tuple.t = Tuple.unsafe_of_array [||]

let create schema =
  {
    schema;
    rows = Array.make 16 empty_row;
    hashes = Array.make 16 0;
    below = Array.make 16 (-1);
    alive = Bytes.make 16 '\000';
    len = 0;
    live = 0;
    index = Array.make 32 (-1);
    distinct = 0;
    undo = Array.make 16 0;
    undo_len = 0;
  }

let schema t = t.schema

let[@inline] is_alive t s = Bytes.unsafe_get t.alive s <> '\000'

(* The index position holding [row]'s stack, or the empty position where it
   would go. *)
let locate t row h =
  let mask = Array.length t.index - 1 in
  let rec probe i =
    let s = t.index.(i) in
    if s < 0 || (t.hashes.(s) = h && Tuple.equal t.rows.(s) row) then i
    else probe ((i + 1) land mask)
  in
  probe (h land mask)

(* Empty position [i] by backward shift: later entries of the probe run
   move up into the hole when their home position allows it, so a probe
   never stops early at a hole. *)
let remove_at t i =
  let mask = Array.length t.index - 1 in
  let rec shift hole j =
    let s = t.index.(j) in
    if s < 0 then t.index.(hole) <- -1
    else if (j - (t.hashes.(s) land mask)) land mask >= (j - hole) land mask then begin
      t.index.(hole) <- s;
      shift j ((j + 1) land mask)
    end
    else shift hole ((j + 1) land mask)
  in
  shift i ((i + 1) land mask);
  t.distinct <- t.distinct - 1

(* Rebuild the index at [capacity] by stacking the live slots oldest first,
   so the newest of each set of equal rows ends on top.  A tombstone keeps
   its [below] link: it still names the top an undone delete goes back on. *)
let reindex t capacity =
  t.index <- Array.make capacity (-1);
  t.distinct <- 0;
  for s = 0 to t.len - 1 do
    if is_alive t s then begin
      let i = locate t t.rows.(s) t.hashes.(s) in
      let top = t.index.(i) in
      if top < 0 then t.distinct <- t.distinct + 1;
      t.below.(s) <- top;
      t.index.(i) <- s
    end
  done

let grow_slots t =
  let n = 2 * Array.length t.rows in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.rows <- extend t.rows empty_row;
  t.hashes <- extend t.hashes 0;
  t.below <- extend t.below (-1);
  t.alive <- Bytes.extend t.alive 0 (n - Bytes.length t.alive)

let log t entry =
  if t.undo_len = Array.length t.undo then begin
    let bigger = Array.make (2 * t.undo_len) 0 in
    Array.blit t.undo 0 bigger 0 t.undo_len;
    t.undo <- bigger
  end;
  t.undo.(t.undo_len) <- entry;
  t.undo_len <- t.undo_len + 1

let push t row =
  if t.len = Array.length t.rows then grow_slots t;
  let s = t.len and h = Tuple.hash row in
  t.rows.(s) <- row;
  t.hashes.(s) <- h;
  Bytes.unsafe_set t.alive s '\001';
  let i = locate t row h in
  let top = t.index.(i) in
  t.below.(s) <- top;
  t.index.(i) <- s;
  t.len <- s + 1;
  t.live <- t.live + 1;
  if top < 0 then begin
    t.distinct <- t.distinct + 1;
    if 2 * t.distinct > Array.length t.index then reindex t (2 * Array.length t.index)
  end;
  log t s

(* Pop [i]'s top slot [s] off its stack. *)
let unlink t i s =
  let below = t.below.(s) in
  if below >= 0 then t.index.(i) <- below else remove_at t i

let pop t row =
  let i = locate t row (Tuple.hash row) in
  let s = t.index.(i) in
  if s < 0 then invalid_arg "Source: delete/update of absent row";
  unlink t i s;
  Bytes.unsafe_set t.alive s '\000';
  t.live <- t.live - 1;
  log t (lnot s)

(* Undo the batch's changes newest first.  Each step restores the stack it
   changed: an undone insert is the last slot, and an undone delete's slot
   goes back on top of the rows [below] still names. *)
let rollback t =
  for k = t.undo_len - 1 downto 0 do
    let e = t.undo.(k) in
    if e >= 0 then begin
      unlink t (locate t t.rows.(e) t.hashes.(e)) e;
      Bytes.unsafe_set t.alive e '\000';
      t.rows.(e) <- empty_row;
      t.len <- e;
      t.live <- t.live - 1
    end
    else begin
      let s = lnot e in
      let i = locate t t.rows.(s) t.hashes.(s) in
      if t.index.(i) < 0 then t.distinct <- t.distinct + 1;
      t.index.(i) <- s;
      Bytes.unsafe_set t.alive s '\001';
      t.live <- t.live + 1
    end
  done;
  t.undo_len <- 0

(* Squeeze out the tombstones, keeping arrival order, and reindex at the
   smallest capacity that keeps the index at most half full. *)
let compact t =
  let j = ref 0 in
  for s = 0 to t.len - 1 do
    if is_alive t s then begin
      t.rows.(!j) <- t.rows.(s);
      t.hashes.(!j) <- t.hashes.(s);
      incr j
    end
  done;
  let len = !j in
  Array.fill t.rows len (t.len - len) empty_row;
  Bytes.fill t.alive 0 len '\001';
  Bytes.fill t.alive len (t.len - len) '\000';
  t.len <- len;
  let capacity = ref 32 in
  while !capacity < 2 * len do
    capacity := 2 * !capacity
  done;
  reindex t !capacity

let apply t changes =
  t.undo_len <- 0;
  match
    List.iter
      (fun change ->
        match change with
        | Delta.Insert row -> push t row
        | Delta.Delete row -> pop t row
        | Delta.Update (old_row, new_row) ->
          pop t old_row;
          push t new_row)
      changes
  with
  | () ->
    (* The batch stands: its tombstones need not hold their rows any more. *)
    for k = 0 to t.undo_len - 1 do
      let e = t.undo.(k) in
      if e < 0 then t.rows.(lnot e) <- empty_row
    done;
    t.undo_len <- 0;
    if t.len - t.live > t.live then compact t
  | exception e ->
    rollback t;
    raise e

let fold_rows_rev f t init =
  let acc = ref init in
  for s = t.len - 1 downto 0 do
    if is_alive t s then acc := f t.rows.(s) !acc
  done;
  !acc

let rows t = fold_rows_rev List.cons t []

let row_count t = t.live

let compute_view t view =
  (* Reuse the batch aggregation over the whole base as a fresh load. *)
  let inserts = fold_rows_rev (fun r acc -> Delta.Insert r :: acc) t [] in
  let deltas = Delta.net_group_deltas view inserts in
  let target = View_def.target_schema view in
  List.filter_map
    (fun { Delta.key; agg_delta; count_delta; _ } ->
      if View_def.has_count view && count_delta <= 0 then None
      else
        let aggs =
          if View_def.has_count view then
            (* The last aggregate is the hidden row_count; its delta over a
               fresh load is the group's support. *)
            let rec replace_last = function
              | [] -> []
              | [ _ ] -> [ Value.Int count_delta ]
              | x :: rest -> x :: replace_last rest
            in
            replace_last agg_delta
          else agg_delta
        in
        Some (Tuple.make target (key @ aggs)))
    deltas
