let enabled = ref false

module Counter = struct
  (* [Atomic.t] rather than a mutable int: counters are bumped from every
     reader domain on the hottest paths (buffer-pool hits, visibility
     decodes), and a plain read-modify-write would drop increments under
     contention.  A fetch-and-add is a single lock-free instruction. *)
  type t = { name : string; v : int Atomic.t }

  let make name = { name; v = Atomic.make 0 }

  let name c = c.name

  let get c = Atomic.get c.v

  let add c n = ignore (Atomic.fetch_and_add c.v n)

  let incr c = ignore (Atomic.fetch_and_add c.v 1)

  let record c n = if !enabled then ignore (Atomic.fetch_and_add c.v n)

  let reset c = Atomic.set c.v 0
end

module Gauge = struct
  type t = { name : string; initial : int; v : int Atomic.t }

  let make ?(initial = 0) name = { name; initial; v = Atomic.make initial }

  let name g = g.name

  let get g = Atomic.get g.v

  let set g n = Atomic.set g.v n

  let record g n = if !enabled then Atomic.set g.v n

  let reset g = Atomic.set g.v g.initial
end

module Histogram = struct
  (* Fixed upper bounds in ascending order plus an implicit overflow
     bucket; exact moments (sum, sum of squares, min, max) ride along so
     the summary's mean/stddev/extremes are not bucket-quantized. *)
  type t = {
    name : string;
    mu : Mutex.t;
        (** One histogram observation touches six fields; the mutex keeps
            them mutually consistent when several reader domains observe at
            once.  The critical section is a dozen arithmetic ops — far
            cheaper than the query it annotates. *)
    bounds : float array;
    counts : int array;  (** length = Array.length bounds + 1 *)
    mutable n : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable minv : float;
    mutable maxv : float;
  }

  (* 1µs .. 10s expressed in milliseconds. *)
  let default_buckets =
    [|
      0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0;
      50.0; 100.0; 200.0; 500.0; 1000.0; 2000.0; 5000.0; 10000.0;
    |]

  let make ?(buckets = default_buckets) name =
    let ok = ref (Array.length buckets > 0) in
    Array.iteri (fun i b -> if i > 0 && b <= buckets.(i - 1) then ok := false) buckets;
    if not !ok then invalid_arg "Obs.Histogram: buckets must be non-empty and ascending";
    {
      name;
      mu = Mutex.create ();
      bounds = buckets;
      counts = Array.make (Array.length buckets + 1) 0;
      n = 0;
      sum = 0.0;
      sumsq = 0.0;
      minv = infinity;
      maxv = neg_infinity;
    }

  let name h = h.name

  let bucket_index h x =
    (* Buckets are few and the upper ones rarely hit; a linear scan from
       the smallest bound is branch-predictable and allocation-free. *)
    let k = Array.length h.bounds in
    let rec go i = if i >= k || x <= h.bounds.(i) then i else go (i + 1) in
    go 0

  let observe h x =
    Mutex.protect h.mu @@ fun () ->
    h.counts.(bucket_index h x) <- h.counts.(bucket_index h x) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. x;
    h.sumsq <- h.sumsq +. (x *. x);
    if x < h.minv then h.minv <- x;
    if x > h.maxv then h.maxv <- x

  let record h x = if !enabled then observe h x

  let count h = h.n

  let total h = h.sum

  (* Upper bound of the bucket containing the p-th percentile rank,
     clamped to the observed extremes (so a one-value histogram reports
     that value at every percentile). *)
  let percentile h p =
    if h.n = 0 then 0.0
    else begin
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int h.n)) in
      let rank = max 1 (min h.n rank) in
      let rec go i seen =
        let seen = seen + h.counts.(i) in
        if seen >= rank then
          if i < Array.length h.bounds then h.bounds.(i) else h.maxv
        else go (i + 1) seen
      in
      Float.max h.minv (Float.min h.maxv (go 0 0))
    end

  let summary h : Vnl_util.Stats.summary =
    Mutex.protect h.mu @@ fun () : Vnl_util.Stats.summary ->
    if h.n = 0 then
      { n = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p90 = 0.0;
        p99 = 0.0; total = 0.0 }
    else begin
      let nf = float_of_int h.n in
      let mean = h.sum /. nf in
      let var = Float.max 0.0 ((h.sumsq /. nf) -. (mean *. mean)) in
      {
        n = h.n;
        mean;
        stddev = sqrt var;
        min = h.minv;
        max = h.maxv;
        p50 = percentile h 50.0;
        p90 = percentile h 90.0;
        p99 = percentile h 99.0;
        total = h.sum;
      }
    end

  let reset h =
    Mutex.protect h.mu @@ fun () ->
    Array.fill h.counts 0 (Array.length h.counts) 0;
    h.n <- 0;
    h.sum <- 0.0;
    h.sumsq <- 0.0;
    h.minv <- infinity;
    h.maxv <- neg_infinity
end

module Registry = struct
  type metric = C of Counter.t | G of Gauge.t | H of Histogram.t

  (* The mutex guards the name table only (Hashtbl resize under a
     concurrent reader segfaults); the cells it hands out synchronize
     themselves.  Registration is off every hot path — call sites hold the
     cell, not the name. *)
  type t = { metrics : (string, metric) Hashtbl.t; mu : Mutex.t }

  let create () = { metrics = Hashtbl.create 32; mu = Mutex.create () }

  let default = create ()

  let kind = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

  let clash name want found =
    invalid_arg
      (Printf.sprintf "Obs.Registry: %S is already a %s, not a %s" name (kind found) want)

  let counter ?(registry = default) name =
    Mutex.protect registry.mu @@ fun () ->
    match Hashtbl.find_opt registry.metrics name with
    | Some (C c) -> c
    | Some m -> clash name "counter" m
    | None ->
      let c = Counter.make name in
      Hashtbl.add registry.metrics name (C c);
      c

  let gauge ?(registry = default) ?initial name =
    Mutex.protect registry.mu @@ fun () ->
    match Hashtbl.find_opt registry.metrics name with
    | Some (G g) -> g
    | Some m -> clash name "gauge" m
    | None ->
      let g = Gauge.make ?initial name in
      Hashtbl.add registry.metrics name (G g);
      g

  let histogram ?(registry = default) ?buckets name =
    Mutex.protect registry.mu @@ fun () ->
    match Hashtbl.find_opt registry.metrics name with
    | Some (H h) -> h
    | Some m -> clash name "histogram" m
    | None ->
      let h = Histogram.make ?buckets name in
      Hashtbl.add registry.metrics name (H h);
      h

  let reset t =
    Mutex.protect t.mu @@ fun () ->
    Hashtbl.iter
      (fun _ m ->
        match m with
        | C c -> Counter.reset c
        | G g -> Gauge.reset g
        | H h -> Histogram.reset h)
      t.metrics

  let sorted_by name_of xs = List.sort (fun a b -> compare (name_of a) (name_of b)) xs

  let counters t =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold (fun _ m acc -> match m with C c -> c :: acc | _ -> acc) t.metrics [])
    |> sorted_by Counter.name

  let gauges t =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold (fun _ m acc -> match m with G g -> g :: acc | _ -> acc) t.metrics [])
    |> sorted_by Gauge.name

  let histograms t =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold (fun _ m acc -> match m with H h -> h :: acc | _ -> acc) t.metrics [])
    |> sorted_by Histogram.name
end

(* ---------- spans ---------- *)

module Span = struct
  type status = Closed | Aborted

  type t = {
    name : string;
    depth : int;
    seq : int;
    start_s : float;
    mutable stop_s : float;
    mutable status : status;
  }

  let duration_ms sp = 1000.0 *. (sp.stop_s -. sp.start_s)
end

let span_prefix = "span."

(* One trace per domain.  Spans from two domains used to interleave in a
   single shared ring and stack: a reader's end_span could pop the
   maintainer's open span (corrupting every later depth) and concurrent
   ring writes dropped entries.  Each domain now owns its ring and stack —
   the begin/end hot path touches no shared state except the global [seq],
   an atomic that gives the merged export a total begin order. *)
type trace = {
  mutable ring : Span.t option array;
  mutable next : int;  (** Ring write cursor. *)
  mutable stack : Span.t list;  (** Open spans, innermost first. *)
}

let seq = Atomic.make 0

let trace_capacity = ref 256

(* Every domain's trace, for merge-on-export; the list mutex is taken only
   on domain-first-span, export, and reset. *)
let traces : trace list ref = ref []

let traces_mu = Mutex.create ()

let trace_key =
  Domain.DLS.new_key (fun () ->
      let t = { ring = Array.make !trace_capacity None; next = 0; stack = [] } in
      Mutex.protect traces_mu (fun () -> traces := t :: !traces);
      t)

let my_trace () = Domain.DLS.get trace_key

let set_trace_capacity n =
  if n < 1 then invalid_arg "Obs.set_trace_capacity: capacity must be >= 1";
  trace_capacity := n;
  Mutex.protect traces_mu (fun () ->
      List.iter
        (fun t ->
          t.ring <- Array.make n None;
          t.next <- 0)
        !traces)

let begin_span name =
  let trace = my_trace () in
  let sp : Span.t =
    {
      name;
      depth = List.length trace.stack;
      seq = Atomic.fetch_and_add seq 1;
      start_s = Sys.time ();
      stop_s = 0.0;
      status = Span.Closed;
    }
  in
  trace.stack <- sp :: trace.stack;
  sp

let end_span ?(status = Span.Closed) (sp : Span.t) =
  let trace = my_trace () in
  sp.stop_s <- Sys.time ();
  sp.status <- status;
  (match trace.stack with
  | top :: rest when top == sp -> trace.stack <- rest
  | _ ->
    (* A leaked inner span would desynchronize depths; drop this span from
       wherever it sits so the stack cannot grow without bound. *)
    trace.stack <- List.filter (fun s -> s != sp) trace.stack);
  trace.ring.(trace.next) <- Some sp;
  trace.next <- (trace.next + 1) mod Array.length trace.ring;
  Histogram.observe (Registry.histogram (span_prefix ^ sp.name)) (Span.duration_ms sp)

let with_span name f =
  if not !enabled then f ()
  else begin
    let sp = begin_span name in
    match f () with
    | v ->
      end_span sp;
      v
    | exception e ->
      end_span ~status:Span.Aborted sp;
      raise e
  end

let open_spans () = List.length (my_trace ()).stack

let trace_spans trace =
  let n = Array.length trace.ring in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    match trace.ring.((trace.next + i) mod n) with
    | Some sp -> acc := sp :: !acc
    | None -> ()
  done;
  List.rev !acc

(* All domains' completed spans in global begin order.  On a single domain
   this is exactly the old single-ring view; with several, each ring is
   internally ordered by [seq] already, so the merge is a sort of the
   concatenation. *)
let recent_spans () =
  let ts = Mutex.protect traces_mu (fun () -> !traces) in
  List.concat_map trace_spans ts
  |> List.sort (fun (a : Span.t) (b : Span.t) -> compare a.seq b.seq)

let clear_spans () =
  Mutex.protect traces_mu (fun () ->
      List.iter
        (fun t ->
          Array.fill t.ring 0 (Array.length t.ring) None;
          t.next <- 0)
        !traces);
  Atomic.set seq 0

let reset () =
  Registry.reset Registry.default;
  clear_spans ()

(* ---------- export ---------- *)

let summary_fields (s : Vnl_util.Stats.summary) =
  [
    ("count", Json.Num (float_of_int s.n));
    ("total_ms", Json.Num s.total);
    ("mean_ms", Json.Num s.mean);
    ("stddev_ms", Json.Num s.stddev);
    ("min_ms", Json.Num s.min);
    ("max_ms", Json.Num s.max);
    ("p50_ms", Json.Num s.p50);
    ("p90_ms", Json.Num s.p90);
    ("p99_ms", Json.Num s.p99);
  ]

let to_json ?(registry = Registry.default) () =
  let counters =
    List.map
      (fun c -> (Counter.name c, Json.Num (float_of_int (Counter.get c))))
      (Registry.counters registry)
  in
  let gauges =
    List.map
      (fun g -> (Gauge.name g, Json.Num (float_of_int (Gauge.get g))))
      (Registry.gauges registry)
  in
  let histograms =
    List.map
      (fun h -> (Histogram.name h, Json.Obj (summary_fields (Histogram.summary h))))
      (Registry.histograms registry)
  in
  let spans =
    if registry != Registry.default then []
    else
      [
        ( "spans",
          Json.Arr
            (List.map
               (fun (sp : Span.t) ->
                 Json.Obj
                   [
                     ("name", Json.Str sp.name);
                     ("depth", Json.Num (float_of_int sp.depth));
                     ("seq", Json.Num (float_of_int sp.seq));
                     ("ms", Json.Num (Span.duration_ms sp));
                     ( "status",
                       Json.Str
                         (match sp.status with Span.Closed -> "closed" | Span.Aborted -> "aborted")
                     );
                   ])
               (recent_spans ())) );
      ]
  in
  Json.to_string
    (Json.Obj
       ([ ("counters", Json.Obj counters); ("gauges", Json.Obj gauges);
          ("histograms", Json.Obj histograms) ]
       @ spans))

let prom_name name =
  let buf = Buffer.create (String.length name + 4) in
  Buffer.add_string buf "vnl_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let to_prometheus ?(registry = Registry.default) () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      let n = prom_name (Counter.name c) in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n (Counter.get c)))
    (Registry.counters registry);
  List.iter
    (fun g ->
      let n = prom_name (Gauge.name g) in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %d\n" n n (Gauge.get g)))
    (Registry.gauges registry);
  List.iter
    (fun (h : Histogram.t) ->
      let n = prom_name (Histogram.name h) in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
      let cumulative = ref 0 in
      Array.iteri
        (fun i bound ->
          cumulative := !cumulative + h.Histogram.counts.(i);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%g\"} %d\n" n bound !cumulative))
        h.Histogram.bounds;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Histogram.count h));
      Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" n (Histogram.total h));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (Histogram.count h)))
    (Registry.histograms registry);
  Buffer.contents buf

let phase_summaries () =
  List.filter_map
    (fun h ->
      let name = Histogram.name h in
      let k = String.length span_prefix in
      if String.length name > k && String.sub name 0 k = span_prefix then
        Some (String.sub name k (String.length name - k), Histogram.summary h)
      else None)
    (Registry.histograms Registry.default)

let phases_json () =
  Json.to_string
    (Json.Obj
       (List.map
          (fun (name, (s : Vnl_util.Stats.summary)) ->
            ( name,
              Json.Obj
                [
                  ("count", Json.Num (float_of_int s.n));
                  ("total_ms", Json.Num s.total);
                  ("mean_ms", Json.Num s.mean);
                  ("p99_ms", Json.Num s.p99);
                ] ))
          (phase_summaries ())))
