(* Seeded input generation, done before any timing starts.

   The live base rows are mirrored in a model that samples a uniformly
   random live row, or a whole live group, in O(1): a dense row array with
   swap-remove plus a group -> positions index.  The warehouse's own
   simulated [Source] is left untouched here; it sees the generated changes
   only when the benchmark queues them, so its O(base rows) cost per update
   or delete stays inside the timed ingest path. *)

module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Xorshift = Vnl_util.Xorshift
module Delta = Vnl_warehouse.Delta
module Sales_gen = Vnl_workload.Sales_gen

type model = {
  mutable rows : Tuple.t array;
  mutable len : int;
  groups : (Value.t list, int list ref) Hashtbl.t;
  mutable group_keys : Value.t list array;  (** Live groups, dense. *)
  mutable n_groups : int;
  group_slot : (Value.t list, int) Hashtbl.t;  (** Key -> index in [group_keys]. *)
}

let group_of row = Tuple.project row [ 0; 1; 2; 3 ]

(* Day 0 is 10/14/96, as in the paper; later days run on through the real
   calendar so a long run never wraps or repeats a date. *)
let date_of_day d =
  let days_in y m =
    match m with
    | 2 -> if y mod 4 = 0 then 29 else 28
    | 4 | 6 | 9 | 11 -> 30
    | _ -> 31
  in
  let rec go y m day rest =
    let room = days_in y m - day in
    if rest <= room then Value.Date ((y * 10000) + (m * 100) + day + rest)
    else if m = 12 then go (y + 1) 1 1 (rest - room - 1)
    else go y (m + 1) 1 (rest - room - 1)
  in
  go 1996 10 14 d

let sale rng ~day =
  let row = Sales_gen.gen_sale rng ~day:0 in
  Tuple.set row 3 (date_of_day day)

let create () =
  {
    rows = Array.make 1024 (Tuple.unsafe_of_array [||]);
    len = 0;
    groups = Hashtbl.create 4096;
    group_keys = Array.make 1024 [];
    n_groups = 0;
    group_slot = Hashtbl.create 4096;
  }

let live_rows m = m.len

let live_groups m = m.n_groups

let add_group m key =
  if m.n_groups = Array.length m.group_keys then begin
    let bigger = Array.make (2 * m.n_groups) [] in
    Array.blit m.group_keys 0 bigger 0 m.n_groups;
    m.group_keys <- bigger
  end;
  m.group_keys.(m.n_groups) <- key;
  Hashtbl.replace m.group_slot key m.n_groups;
  m.n_groups <- m.n_groups + 1

let drop_group m key =
  let i = Hashtbl.find m.group_slot key in
  let last = m.n_groups - 1 in
  let moved = m.group_keys.(last) in
  m.group_keys.(i) <- moved;
  Hashtbl.replace m.group_slot moved i;
  Hashtbl.remove m.group_slot key;
  Hashtbl.remove m.groups key;
  m.n_groups <- last

let add m row =
  if m.len = Array.length m.rows then begin
    let bigger = Array.make (2 * m.len) row in
    Array.blit m.rows 0 bigger 0 m.len;
    m.rows <- bigger
  end;
  m.rows.(m.len) <- row;
  let key = group_of row in
  (match Hashtbl.find_opt m.groups key with
  | Some l -> l := m.len :: !l
  | None ->
    Hashtbl.replace m.groups key (ref [ m.len ]);
    add_group m key);
  m.len <- m.len + 1

(* Swap-remove position [i], keeping both indexes exact. *)
let remove_at m i =
  let row = m.rows.(i) in
  let key = group_of row in
  let l = Hashtbl.find m.groups key in
  l := List.filter (fun p -> p <> i) !l;
  if !l = [] then drop_group m key;
  let last = m.len - 1 in
  if i <> last then begin
    let moved = m.rows.(last) in
    m.rows.(i) <- moved;
    let ml = Hashtbl.find m.groups (group_of moved) in
    ml := List.map (fun p -> if p = last then i else p) !ml
  end;
  m.len <- last;
  row

let initial rng m ~days ~per_day =
  List.concat_map
    (fun day ->
      List.init per_day (fun _ ->
          let row = sale rng ~day in
          add m row;
          Delta.Insert row))
    (List.init days Fun.id)

type batch = {
  changes : Delta.change list;
  inserts : int;
  updates : int;
  deletes : int;
}

let batch_size b = b.inserts + b.updates + b.deletes

let updated rng row =
  let amount =
    match Tuple.get row 4 with
    | Value.Int a -> max 1 (a + Xorshift.int_in rng (-50) 150)
    | _ -> 1
  in
  Tuple.set row 4 (Value.Int amount)

(* Builds one batch; [emit] appends a change and updates the model. *)
let build f =
  let acc = ref [] and ins = ref 0 and upd = ref 0 and del = ref 0 in
  let emit c =
    acc := c :: !acc;
    match c with Delta.Insert _ -> incr ins | Delta.Update _ -> incr upd | Delta.Delete _ -> incr del
  in
  f emit;
  { changes = List.rev !acc; inserts = !ins; updates = !upd; deletes = !del }

let insert m emit row =
  add m row;
  emit (Delta.Insert row)

(* Corrections restating the amount of uniformly random live rows. *)
let corrections rng m emit n =
  for _ = 1 to n do
    let row = remove_at m (Xorshift.int rng m.len) in
    let row' = updated rng row in
    add m row';
    emit (Delta.Update (row, row'))
  done

(* A small mixed batch: [inserts] sales on random earlier days, [updates]
   corrections and [deletes] returns, both of uniformly random live rows
   (so the source scan a delete pays is not biased towards recent rows). *)
let mixed rng m ~days ~inserts ~updates ~deletes =
  build (fun emit ->
      for _ = 1 to inserts do
        insert m emit (sale rng ~day:(Xorshift.int rng days))
      done;
      corrections rng m emit updates;
      for _ = 1 to deletes do
        emit (Delta.Delete (remove_at m (Xorshift.int rng m.len)))
      done)

(* A large spill batch that keeps the live group and row counts steady:
   [fresh] sales on the new day [fresh_day] open new groups; [updates]
   corrections; as many uniformly random live groups as were opened are
   returned to zero (every row deleted); then sales on random live groups
   bring the base back to [target_rows]. *)
let spill rng m ~fresh_day ~fresh ~updates ~target_rows =
  build (fun emit ->
      let groups_before = m.n_groups in
      for _ = 1 to fresh do
        insert m emit (sale rng ~day:fresh_day)
      done;
      let opened = m.n_groups - groups_before in
      corrections rng m emit updates;
      for _ = 1 to opened do
        let key = m.group_keys.(Xorshift.int rng m.n_groups) in
        (* Highest position first: a swap-remove never moves a row of this
           group that is still to be removed. *)
        List.sort (fun a b -> compare b a) !(Hashtbl.find m.groups key)
        |> List.iter (fun p -> emit (Delta.Delete (remove_at m p)))
      done;
      while m.len < target_rows do
        let key = m.group_keys.(Xorshift.int rng m.n_groups) in
        let row = m.rows.(List.hd !(Hashtbl.find m.groups key)) in
        insert m emit (Tuple.set row 4 (Value.Int (10 + Xorshift.int rng 490)))
      done)

(* Point-probe SQL over the whole key space the run can touch: every
   (city, product line, day) of the loaded days. *)
let probe_sql ~days =
  let date d =
    match date_of_day d with
    | Value.Date ymd -> Printf.sprintf "%02d/%02d/%02d" (ymd / 100 mod 100) (ymd mod 100) (ymd / 10000 mod 100)
    | _ -> assert false
  in
  let out = ref [] in
  for d = days - 1 downto 0 do
    Array.iter
      (fun pl ->
        Array.iter
          (fun (city, state) ->
            out :=
              Printf.sprintf
                "SELECT total_sales FROM DailySales WHERE city = '%s' AND state = '%s' AND \
                 product_line = '%s' AND date = DATE '%s'"
                city state pl (date d)
              :: !out)
          Sales_gen.cities)
      Sales_gen.product_lines
  done;
  Array.of_list !out
