(* Layer tables for the traced run.

   A layer's self time is its span's duration minus the part its child
   spans cover.  Each table's rows are measured apart from the figure they
   are checked against, the traced end-to-end p50 of the same run:

   - Query path: sampled requests whose layers the benchmark times one
     public call at a time (in-process: the session's reader extraction,
     then the query over the extracted relation; over the wire: no-work
     round trips, the connection layer replayed without a socket, and the
     in-process query).  A row is its mean over the samples whose own total
     lies between the first and third quartiles of those totals.
   - Commit path: the program's own [Obs] phases
     (warehouse.refresh > maintenance.txn > flag / apply / flush / publish,
     with the summary and batch phases under apply), from their totals per
     [Warehouse.refresh].  [Obs] stamps spans with process CPU time, while
     the benchmark times [Warehouse.refresh] with the monotonic clock. *)

module Obs = Vnl_obs.Obs

(* A table's rows must add up to the traced end-to-end p50 within this
   share of it, or the run fails. *)
let tolerance = 0.25

(* The serial refresh's phases, each with its direct children. *)
let commit_tree =
  [
    ("warehouse.refresh", [ "maintenance.txn" ]);
    ( "maintenance.txn",
      [ "maintenance.flag"; "maintenance.apply"; "maintenance.flush"; "maintenance.publish" ] );
    ("maintenance.flag", []);
    ( "maintenance.apply",
      [
        "summary.net_deltas"; "summary.classify"; "summary.resolve"; "batch.group";
        "batch.resolve"; "batch.fold"; "batch.apply";
      ] );
    ("summary.net_deltas", []);
    ("summary.classify", []);
    ("summary.resolve", []);
    ("batch.group", []);
    ("batch.resolve", []);
    ("batch.fold", []);
    ("batch.apply", []);
    ("maintenance.flush", []);
    ("maintenance.publish", []);
  ]

(* Self CPU milliseconds per commit of each commit-path phase, from the
   phase totals recorded since the last [Obs.reset]. *)
let commit_rows () =
  let phases = Obs.phase_summaries () in
  let total name =
    match List.assoc_opt name phases with Some s -> s.Vnl_util.Stats.total | None -> 0.0
  in
  let commits =
    match List.assoc_opt "warehouse.refresh" phases with Some s -> s.n | None -> 0
  in
  List.map
    (fun (name, children) ->
      let self = total name -. List.fold_left (fun acc c -> acc +. total c) 0.0 children in
      (name, if commits > 0 then self /. float_of_int commits else 0.0))
    commit_tree

(* Mean components over the samples whose total lies within the
   interquartile range of the totals. *)
let interquartile_mean (samples : (float * float array) list) ~width =
  match samples with
  | [] -> Array.make width 0.0
  | _ ->
    let totals = Array.of_list (List.map fst samples) in
    Array.sort compare totals;
    let lo = Measure.percentile_sorted totals 0.25 and hi = Measure.percentile_sorted totals 0.75 in
    let kept = List.filter (fun (total, _) -> total >= lo && total <= hi) samples in
    let acc = Array.make width 0.0 in
    List.iter (fun (_, parts) -> Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) parts) kept;
    let n = float_of_int (max 1 (List.length kept)) in
    Array.map (fun v -> v /. n) acc

let within ratio = Float.abs (ratio -. 1.0) <= tolerance

(* Print one table of (layer, self ms) rows against the traced and
   untraced end-to-end medians; returns the sum's ratio to the traced
   median, which is what the tolerance applies to. *)
let print_table ~title ~traced ~untraced rows =
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 rows in
  let ratio = if traced > 0.0 then sum /. traced else 0.0 in
  Printf.printf "\n%s\n" title;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-28s %10.4f ms  %5.1f%%\n" name v
        (if sum > 0.0 then 100.0 *. v /. sum else 0.0))
    rows;
  Printf.printf "  %-28s %10.4f ms\n" "sum of self times" sum;
  Printf.printf "  %-28s %10.4f ms  (sum / traced = %.3f, %s tolerance %.2f)\n"
    "traced end-to-end p50" traced ratio
    (if within ratio then "within" else "OUTSIDE")
    tolerance;
  Printf.printf "  %-28s %10.4f ms  (tracing overhead = %.3f)\n" "untraced end-to-end p50"
    untraced
    (if untraced > 0.0 then traced /. untraced else 0.0);
  ratio
