(** Wall-clock and CPU timers for the benchmark harness.

    The paper's Table 2 reports both CPU and total (elapsed) time; both
    are measured here, though on an all-in-memory substrate they track
    each other closely (EXPERIMENTS.md discusses the deviation). *)

type span = { wall_ms : float; cpu_ms : float }

val zero : span

val add : span -> span -> span

val measure : (unit -> 'a) -> 'a * span
(** Run the thunk once, returning its result and the elapsed span:
    wall time on {!Xmark_stats.now_ns}, CPU time from [Sys.time]. *)

(** Log-bucketed latency histogram: constant memory for any sample
    count, O(1) insert, mergeable across domains.  Eight geometric
    buckets per octave from 1 microsecond, so quantiles are accurate to
    within ~4.5%; the exact maximum is tracked separately and reported
    for the top occupied bucket.  Not thread-safe — keep one per client
    and {!Histogram.merge} at the end. *)
module Histogram : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** Record one latency sample in milliseconds (negative and NaN
      samples clamp to zero). *)

  val merge : into:t -> t -> unit
  (** Fold [src]'s samples into [into]. *)

  val count : t -> int

  val max_ms : t -> float

  val mean_ms : t -> float

  val percentile : t -> float -> float
  (** Nearest-rank quantile over the buckets; returns the bucket's
      geometric midpoint (or the exact maximum for the top occupied
      bucket).  0 on an empty histogram. *)
end
