(** Workload generator for the paper's sporting-goods sales domain
    (Example 2.1).

    Base data are individual sale transactions
    [(city, state, product_line, date, amount)]; the DailySales summary
    table aggregates total sales per (city, state, product_line, date). *)

val cities : (string * string) array
(** (city, state) vocabulary; includes the paper's San Jose, Berkeley and
    Novato. *)

val product_lines : string array
(** Includes golf equip, racquetball, rollerblades. *)

val sales_schema : Vnl_relation.Schema.t
(** The source relation of individual sales. *)

val daily_sales_view : ?with_count:bool -> unit -> Vnl_warehouse.View_def.t
(** The DailySales summary view over {!sales_schema}. *)

val gen_sale : Vnl_util.Xorshift.t -> day:int -> Vnl_relation.Tuple.t
(** One random sale on the given day (days count from the paper's
    10/14/96). *)

val date_of_day : int -> Vnl_relation.Value.t
(** Calendar date for day [d] (day 0 = 10/14/96; wraps safely across
    month boundaries within 1996). *)

val gen_batch :
  Vnl_util.Xorshift.t ->
  Vnl_warehouse.Source.t ->
  day:int ->
  inserts:int ->
  updates:int ->
  deletes:int ->
  Vnl_warehouse.Delta.change list
(** A day's source batch: [inserts] new sales plus corrections and returns
    applied to rows currently in [source] (fewer if the source is small).
    O(rows) per batch: the live rows are snapshotted once. *)

val initial_load : Vnl_util.Xorshift.t -> days:int -> sales_per_day:int -> Vnl_warehouse.Delta.change list
(** Pure-insert batch used to populate the warehouse before an
    experiment. *)
