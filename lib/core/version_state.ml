module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Dtype = Vnl_relation.Dtype
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Heap_file = Vnl_storage.Heap_file

let table_name = "Version"

let schema =
  Schema.make
    [ Schema.attr "currentVN" Dtype.Int; Schema.attr "maintenanceActive" Dtype.Bool ]

(* The stored tuple stays authoritative (it is what survives a crash and
   what the §4.1 SQL rewrite joins against), but reads go through [cache]:
   an [Atomic] holding the last written (currentVN, outstanding) pair.
   Reader domains check session validity on every query — routing that
   read through the buffer pool would both serialize readers on the pool
   mutex and perturb the I/O counters experiments compare — while the
   maintenance side updates the tuple and then publishes the cache (boxed
   pair: one atomic store, never a torn pair).

   [outstanding] generalizes the paper's boolean [maintenanceActive] to a
   transaction of several VNs: it counts maintenance VNs begun but not yet
   published (0 or 1 for the paper's transaction of one VN).  The
   {e stored} attribute keeps the paper's Bool layout — [outstanding > 0]
   — so the disk format, [attach], and the SQL rewrite are unchanged;
   after a crash the exact count is unrecoverable and unnecessary, since
   §7 repair reverts {e every} tuple stamped above the stored currentVN. *)
type t = { table : Table.t; rid : Heap_file.rid; cache : (int * int) Atomic.t }

let install db =
  let table = Database.create_table db table_name schema in
  let rid = Table.insert table (Tuple.make schema [ Value.Int 1; Value.Bool false ]) in
  { table; rid; cache = Atomic.make (1, 0) }

let read_stored table rid =
  match Table.get table rid with
  | Some tuple -> (
    match (Tuple.get tuple 0, Tuple.get tuple 1) with
    | Value.Int vn, Value.Bool active -> (vn, if active then 1 else 0)
    | _ -> invalid_arg "Version_state: corrupt Version tuple")
  | None -> invalid_arg "Version_state: Version tuple missing"

let attach db =
  match Database.table db table_name with
  | None -> failwith "Version_state.attach: no Version relation"
  | Some table -> (
    match Table.to_list table with
    | [ (rid, _) ] -> { table; rid; cache = Atomic.make (read_stored table rid) }
    | _ -> failwith "Version_state.attach: Version relation must hold exactly one tuple")

let read t =
  Vnl_util.Sched.yield ();
  let vn, outstanding = Atomic.get t.cache in
  (vn, outstanding > 0)

let read_outstanding t =
  Vnl_util.Sched.yield ();
  Atomic.get t.cache

let write t vn outstanding =
  Vnl_util.Sched.yield ();
  Table.update_in_place t.table t.rid
    (Tuple.make schema [ Value.Int vn; Value.Bool (outstanding > 0) ]);
  (* Publish after the tuple write: a concurrent reader sees the new state
     no earlier than the stored tuple does. *)
  Atomic.set t.cache (vn, outstanding)

let storage_page t = t.rid.Heap_file.page

let current_vn t = fst (read t)

let maintenance_active t = snd (read t)

let outstanding t = snd (read_outstanding t)

let begin_round t ~count =
  if count < 1 then invalid_arg "Version_state: count must be >= 1";
  let vn, o = read_outstanding t in
  if o > 0 then invalid_arg "Version_state: a maintenance transaction is already active";
  write t vn count;
  vn

let publish t ~vn =
  let current, o = read_outstanding t in
  if o = 0 then invalid_arg "Version_state: no active maintenance transaction";
  if vn <> current + 1 then
    invalid_arg
      (Printf.sprintf "Version_state: commit vn %d does not follow currentVN %d" vn current);
  write t vn (o - 1)

let abort_maintenance t =
  let current, o = read_outstanding t in
  if o = 0 then invalid_arg "Version_state: no active maintenance transaction";
  write t current 0
