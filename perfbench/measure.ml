(* Clocks, sample sets and process figures. *)

let now_ns () = Monotonic_clock.now ()

let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

let s_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Time one call in milliseconds. *)
let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* A growable float sample set; failed requests are recorded as [infinity]
   so they count against every percentile. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 4096 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0.0 in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sum s =
  let t = ref 0.0 in
  for i = 0 to s.n - 1 do
    t := !t +. s.data.(i)
  done;
  !t

let mean s = if s.n = 0 then 0.0 else sum s /. float_of_int s.n

let sorted s =
  let a = Array.sub s.data 0 s.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile of [q] in [0, 1]. *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let percentile s q = percentile_sorted (sorted s) q

let median s = percentile s 0.5

(* The highest percentile at or below [q] that leaves at least ten samples
   beyond it: [q] itself once there are [10 / (1 - q)] samples. *)
let tail_quantile ~n q =
  if n <= 0 then q else Float.min q (1.0 -. (10.0 /. float_of_int n)) |> Float.max 0.5

let tail s q =
  let q' = tail_quantile ~n:s.n q in
  (percentile s q', q')

(* Median of a small list of floats (set-up repeats). *)
let median_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A tail percentile robust to short bursts of interference (a descheduled
   virtual CPU, say): the samples, in the order taken, are cut into as many
   windows as leave ten samples beyond [q] in each, at most ten, and the
   median of the windows' percentiles is reported.  Returns the figure,
   the quantile used in each window, and the number of windows. *)
let windowed_tail s q =
  let need = int_of_float (Float.ceil (10.0 /. (1.0 -. q))) in
  let w = max 1 (min 10 (s.n / need)) in
  if w = 1 then
    let v, q' = tail s q in
    (v, q', 1)
  else begin
    let per = s.n / w in
    let figures =
      List.init w (fun i ->
          let chunk = Array.sub s.data (i * per) per in
          Array.sort compare chunk;
          percentile_sorted chunk q)
    in
    (median_list figures, q, w)
  end

(* Peak resident set of this process in MiB ([VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let nproc () = Domain.recommended_domain_count ()

(* Milliseconds a fixed integer loop takes: a gauge of how fast the host
   runs right now, printed with the results so that a shift in every
   figure at once can be told apart from a change in the program. *)
let host_probe_ms () =
  let t0 = now_ns () in
  let x = ref 1 in
  for _ = 1 to 5_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  let ms = ms_since t0 in
  if !x = 0 then infinity else ms

(* The CPUs this process may run on, as the kernel lists them. *)
let cpus_allowed () =
  let ic = open_in "/proc/self/status" in
  let prefix = "Cpus_allowed_list:" in
  let k = String.length prefix in
  let rec scan () =
    match input_line ic with
    | line when String.length line > k && String.sub line 0 k = prefix ->
      String.trim (String.sub line k (String.length line - k))
    | _ -> scan ()
    | exception End_of_file -> "?"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* OCaml runtime work over an interval ([Gc.quick_stat] deltas). *)
type gc_delta = { minor : int; major : int; promoted_words : float }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor = b.minor_collections - a.minor_collections;
    major = b.major_collections - a.major_collections;
    promoted_words = b.promoted_words -. a.promoted_words;
  }
