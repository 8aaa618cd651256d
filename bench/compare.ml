(* bench-compare: the CI regression gate over the committed BENCH_*.json
   baselines.

   `compare.exe --baseline DIR --fresh DIR` loads each committed baseline
   from DIR(baseline) and the matching file a fresh `@bench-smoke` run left
   in DIR(fresh), then checks:

   - hard failures (exit 1): a file missing from either side, JSON that
     does not parse, a baseline key absent from the fresh output, a value
     changing JSON kind (schema drift), or a fresh file without a
     non-empty registry-sourced "phases" section;
   - soft warnings (exit 0): timing values (keys ending in _ms / _ns / _s,
     and speedup ratios) drifting by more than 3x in either direction, and
     phase-name or array-length differences inside "phases" — the smoke
     run is deliberately tiny, so its timings gate nothing.

   The asymmetry is the point: CI on a shared runner cannot hold timing
   steady, but it can hold the *shape* of every benchmark artifact steady,
   which is what downstream tooling parses. *)

module Json = Vnl_obs.Json

let bench_files =
  [
    "BENCH_maintenance.json"; "BENCH_plans.json"; "BENCH_recovery.json";
    "BENCH_parallel.json"; "BENCH_pipeline.json"; "BENCH_net.json";
    "BENCH_catalog.json";
  ]

let errors = ref 0

let warnings = ref 0

let error fmt = Printf.ksprintf (fun s -> incr errors; Printf.printf "ERROR %s\n" s) fmt

let warn fmt = Printf.ksprintf (fun s -> incr warnings; Printf.printf "warn  %s\n" s) fmt

let kind = function
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.Num _ -> "number"
  | Json.Str _ -> "string"
  | Json.Arr _ -> "array"
  | Json.Obj _ -> "object"

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let is_timing_key k =
  ends_with ~suffix:"_ms" k || ends_with ~suffix:"_ns" k || ends_with ~suffix:"_s" k
  || String.equal k "speedup"

let check_timing path b f =
  if b > 0.0 && f > 0.0 then begin
    let ratio = if f > b then f /. b else b /. f in
    if ratio > 3.0 then warn "%s: timing drift %.3g -> %.3g (%.1fx)" path b f ratio
  end

(* Baseline-shape containment: every key path in the baseline must exist in
   the fresh output with the same JSON kind.  Inside [lenient] subtrees
   ("phases": span sets follow the exercised code paths, and the smoke run
   is smaller) structural differences warn instead of fail. *)
let rec walk ~lenient path (base : Json.t) (fresh : Json.t) =
  match (base, fresh) with
  | Json.Obj bfs, Json.Obj ffs ->
    List.iter
      (fun (k, bv) ->
        let sub = path ^ "." ^ k in
        match List.assoc_opt k ffs with
        | None ->
          if lenient then warn "%s: key missing from fresh output" sub
          else error "%s: key missing from fresh output" sub
        | Some fv -> walk ~lenient:(lenient || String.equal k "phases") sub bv fv)
      bfs
  | Json.Arr bs, Json.Arr fs ->
    let nb = List.length bs and nf = List.length fs in
    if nb <> nf then
      if lenient then warn "%s: array length %d -> %d" path nb nf
      else error "%s: array length %d -> %d (schema drift)" path nb nf;
    List.iteri
      (fun i bv ->
        match List.nth_opt fs i with
        | Some fv -> walk ~lenient (Printf.sprintf "%s[%d]" path i) bv fv
        | None -> ())
      bs
  | Json.Num b, Json.Num f ->
    let leaf =
      match String.rindex_opt path '.' with
      | Some i -> String.sub path (i + 1) (String.length path - i - 1)
      | None -> path
    in
    if is_timing_key leaf then check_timing path b f
  | Json.Str _, Json.Str _ | Json.Bool _, Json.Bool _ | Json.Null, Json.Null -> ()
  | _ ->
    if lenient then warn "%s: kind changed %s -> %s" path (kind base) (kind fresh)
    else error "%s: kind changed %s -> %s (schema drift)" path (kind base) (kind fresh)

(* The acceptance shape of a registry-sourced phase summary (what
   [Vnl_obs.Obs.phases_json] emits). *)
let check_phases file (fresh : Json.t) =
  match Json.member "phases" fresh with
  | None -> error "%s: fresh output has no \"phases\" section" file
  | Some (Json.Obj []) -> error "%s: fresh \"phases\" section is empty" file
  | Some (Json.Obj entries) ->
    List.iter
      (fun (name, v) ->
        match v with
        | Json.Obj fields ->
          List.iter
            (fun want ->
              if not (List.mem_assoc want fields) then
                error "%s: phase %S lacks %S" file name want)
            [ "count"; "total_ms"; "mean_ms"; "p99_ms" ]
        | _ -> error "%s: phase %S is not an object" file name)
      entries
  | Some j -> error "%s: \"phases\" is %s, expected object" file (kind j)

(* Scaling-floor gate over the fresh BENCH_parallel.json: the 8-reader
   configuration must keep a minimum speedup over 1 reader and report zero
   inconsistent query pairs.  The floor (--parallel-floor, default 1.5) is
   deliberately far below the numbers a quiet machine produces — shared CI
   runners cannot hold absolute timings, but a latch-reintroduction that
   flattens the curve to ~1x must fail loudly, not warn. *)
let check_parallel_floor ~floor (fresh : Json.t) =
  let num = function Some (Json.Num n) -> Some n | _ -> None in
  match Json.member "scaling" fresh with
  | Some (Json.Arr rows) ->
    let entry r =
      match num (Json.member "readers" r) with Some n -> int_of_float n | None -> -1
    in
    (match List.find_opt (fun r -> entry r = 8) rows with
    | None -> error "BENCH_parallel.json: no 8-reader row in \"scaling\""
    | Some row ->
      (match num (Json.member "speedup" row) with
      | Some s when s < floor ->
        error "BENCH_parallel.json: 8-reader speedup %.2fx below floor %.2fx" s floor
      | Some s -> Printf.printf "ok    BENCH_parallel.json: 8-reader speedup %.2fx (floor %.2fx)\n" s floor
      | None -> error "BENCH_parallel.json: 8-reader row lacks a numeric \"speedup\"");
      (match num (Json.member "inconsistent" row) with
      | Some 0.0 -> ()
      | Some n -> error "BENCH_parallel.json: %g inconsistent query pairs at 8 readers" n
      | None -> error "BENCH_parallel.json: 8-reader row lacks \"inconsistent\""))
  | _ -> error "BENCH_parallel.json: no \"scaling\" array for the floor gate"

(* The maintainer-side twin of [check_parallel_floor], over the fresh
   BENCH_pipeline.json: the 4-worker configuration must keep a minimum
   batch-drain speedup over the base row (workers = 0, one batch per
   one-stripe round) and report zero inconsistent reader pairs.  The floor
   (--pipeline-floor, default 1.2) sits under a quiet machine's numbers
   (~1.4-2x): the gate is
   for a regression that flattens pipelining back to serial — a lost
   netting window, a partitioner that stops splitting, or a stripe
   protocol change that re-serializes the round. *)
let check_pipeline_floor ~floor (fresh : Json.t) =
  let num = function Some (Json.Num n) -> Some n | _ -> None in
  match Json.member "scaling" fresh with
  | Some (Json.Arr rows) ->
    let entry r =
      match num (Json.member "workers" r) with Some n -> int_of_float n | None -> -1
    in
    (match List.find_opt (fun r -> entry r = 4) rows with
    | None -> error "BENCH_pipeline.json: no 4-worker row in \"scaling\""
    | Some row ->
      (match num (Json.member "speedup" row) with
      | Some s when s < floor ->
        error "BENCH_pipeline.json: 4-worker speedup %.2fx below floor %.2fx" s floor
      | Some s -> Printf.printf "ok    BENCH_pipeline.json: 4-worker speedup %.2fx (floor %.2fx)\n" s floor
      | None -> error "BENCH_pipeline.json: 4-worker row lacks a numeric \"speedup\"");
      (match num (Json.member "inconsistent" row) with
      | Some 0.0 -> ()
      | Some n -> error "BENCH_pipeline.json: %g inconsistent query pairs at 4 workers" n
      | None -> error "BENCH_pipeline.json: 4-worker row lacks \"inconsistent\""))
  | _ -> error "BENCH_pipeline.json: no \"scaling\" array for the floor gate"

(* The serving gate, over BENCH_net.json.  Unlike the speedup floors this
   one is a *ratio against the committed baseline*: fresh totals.qps must
   reach at least [floor] (default 0.05) of the baseline's — absolute
   throughput varies wildly across runners, but a 20x collapse means the
   select loop serialized or the server is shedding everything.  Two
   hard zeros ride along: totals.inconsistent (a query pair disagreed
   within one session over the wire — the 2VNL guarantee broke) and
   totals.horizon_lag (session pins still held after shutdown — a leaked
   epoch pin would stall GC forever). *)
let check_net_floor ~floor ~(baseline : Json.t option) (fresh : Json.t) =
  let num j k = match Json.member k j with Some (Json.Num n) -> Some n | _ -> None in
  match Json.member "totals" fresh with
  | Some totals ->
    (match num totals "qps" with
    | Some f_qps -> (
      match baseline with
      | None -> ()
      | Some b -> (
        match Json.member "totals" b with
        | Some bt -> (
          match num bt "qps" with
          | Some b_qps when b_qps > 0.0 ->
            let ratio = f_qps /. b_qps in
            if ratio < floor then
              error "BENCH_net.json: qps %.0f is %.3fx of baseline %.0f (floor %.3fx)"
                f_qps ratio b_qps floor
            else
              Printf.printf "ok    BENCH_net.json: qps %.0f, %.2fx of baseline %.0f (floor %.3fx)\n"
                f_qps ratio b_qps floor
          | _ -> error "BENCH_net.json: baseline \"totals\" lacks a positive \"qps\"")
        | None -> error "BENCH_net.json: baseline has no \"totals\" section"))
    | None -> error "BENCH_net.json: fresh \"totals\" lacks a numeric \"qps\"");
    (match num totals "inconsistent" with
    | Some 0.0 -> ()
    | Some n -> error "BENCH_net.json: %g inconsistent query pairs over the wire" n
    | None -> error "BENCH_net.json: \"totals\" lacks \"inconsistent\"");
    (match num totals "horizon_lag" with
    | Some 0.0 -> ()
    | Some n -> error "BENCH_net.json: horizon lag %g after shutdown (leaked session pins)" n
    | None -> error "BENCH_net.json: \"totals\" lacks \"horizon_lag\"")
  | None -> error "BENCH_net.json: no \"totals\" section for the floor gate"

(* The evolution gate, over BENCH_catalog.json: reader throughput while
   ADD COLUMN generations stage, copy, and publish must stay above
   [floor] (--catalog-floor, default 0.25) of the pre-evolution baseline.
   Readers never block under the generational catalog, so a healthy run
   sits near 1.0 even on a noisy runner; a collapse to ~0 means an
   evolution started blocking readers (a global catalog latch, a
   stop-the-world copy).  totals.inconsistent — a read whose arity
   disagreed with its session's pinned generation, or a query pair that
   disagreed within one session — is a hard zero. *)
let check_catalog_floor ~floor (fresh : Json.t) =
  let num j k = match Json.member k j with Some (Json.Num n) -> Some n | _ -> None in
  match Json.member "totals" fresh with
  | Some totals ->
    (match num totals "dip_ratio" with
    | Some r when r < floor ->
      error "BENCH_catalog.json: during-evolution reader throughput %.2fx of baseline, \
             below floor %.2fx" r floor
    | Some r ->
      Printf.printf
        "ok    BENCH_catalog.json: during-evolution reader throughput %.2fx of baseline \
         (floor %.2fx)\n" r floor
    | None -> error "BENCH_catalog.json: \"totals\" lacks a numeric \"dip_ratio\"");
    (match num totals "inconsistent" with
    | Some 0.0 -> ()
    | Some n -> error "BENCH_catalog.json: %g inconsistent reads during evolution" n
    | None -> error "BENCH_catalog.json: \"totals\" lacks \"inconsistent\"")
  | None -> error "BENCH_catalog.json: no \"totals\" section for the floor gate"

let load side path =
  if not (Sys.file_exists path) then begin
    error "%s file %s is missing" side path;
    None
  end
  else
    match Json.parse_file path with
    | j -> Some j
    | exception Json.Parse_error msg ->
      error "%s file %s does not parse: %s" side path msg;
      None

let compare_file ~baseline ~fresh file =
  let b = load "baseline" (Filename.concat baseline file) in
  let f = load "fresh" (Filename.concat fresh file) in
  match (b, f) with
  | Some b, Some f ->
    check_phases file f;
    walk ~lenient:false file b f
  | _ -> ()

let usage () =
  prerr_endline
    "usage: compare.exe --baseline DIR --fresh DIR [--parallel-floor X] [--pipeline-floor X] \
     [--net-floor X] [--catalog-floor X]";
  exit 2

let () =
  let baseline = ref "." and fresh = ref "" in
  let floor = ref 1.5 and pipeline_floor = ref 1.2 in
  let net_floor = ref 0.05 in
  let catalog_floor = ref 0.25 in
  let positive name x k =
    match float_of_string_opt x with
    | Some f when f > 0.0 -> k f
    | Some _ | None ->
      Printf.eprintf "%s: expected a positive number, got %S\n" name x;
      usage ()
  in
  let rec parse = function
    | "--baseline" :: dir :: rest -> baseline := dir; parse rest
    | "--fresh" :: dir :: rest -> fresh := dir; parse rest
    | "--parallel-floor" :: x :: rest ->
      positive "--parallel-floor" x (fun f -> floor := f; parse rest)
    | "--pipeline-floor" :: x :: rest ->
      positive "--pipeline-floor" x (fun f -> pipeline_floor := f; parse rest)
    | "--net-floor" :: x :: rest ->
      positive "--net-floor" x (fun f -> net_floor := f; parse rest)
    | "--catalog-floor" :: x :: rest ->
      positive "--catalog-floor" x (fun f -> catalog_floor := f; parse rest)
    | [] -> ()
    | arg :: _ -> Printf.eprintf "unknown argument %S\n" arg; usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if String.equal !fresh "" then usage ();
  Printf.printf "bench-compare: baseline=%s fresh=%s\n" !baseline !fresh;
  List.iter (compare_file ~baseline:!baseline ~fresh:!fresh) bench_files;
  Option.iter (check_parallel_floor ~floor:!floor)
    (load "fresh" (Filename.concat !fresh "BENCH_parallel.json"));
  Option.iter (check_pipeline_floor ~floor:!pipeline_floor)
    (load "fresh" (Filename.concat !fresh "BENCH_pipeline.json"));
  Option.iter
    (check_net_floor ~floor:!net_floor
       ~baseline:(load "baseline" (Filename.concat !baseline "BENCH_net.json")))
    (load "fresh" (Filename.concat !fresh "BENCH_net.json"));
  Option.iter (check_catalog_floor ~floor:!catalog_floor)
    (load "fresh" (Filename.concat !fresh "BENCH_catalog.json"));
  Printf.printf "bench-compare: %d error(s), %d warning(s) over %d file(s)\n" !errors
    !warnings (List.length bench_files);
  exit (if !errors > 0 then 1 else 0)
