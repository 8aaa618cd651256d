(** Descriptive statistics over float samples, used by the benchmark harness
    and the concurrency simulator's metric reports. *)

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
(** Five-number-style summary of a sample. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank on the sorted
    sample; 0 on the empty list. *)

val summarize : float list -> summary
(** Full summary of a sample. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or 0 when [b = 0]; convenient for overhead
    factors in reports. *)
