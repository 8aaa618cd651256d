type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  total : float;
}

let total xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> 0.0
  | xs -> total xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (sq /. float_of_int (List.length xs))

let percentile p = function
  | [] -> 0.0
  | xs ->
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    arr.(idx)

let summarize xs =
  let n = List.length xs in
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = (match xs with [] -> 0.0 | _ -> List.fold_left min infinity xs);
    max = (match xs with [] -> 0.0 | _ -> List.fold_left max neg_infinity xs);
    p50 = percentile 50.0 xs;
    p90 = percentile 90.0 xs;
    p99 = percentile 99.0 xs;
    total = total xs;
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b
