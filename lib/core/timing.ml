(** Wall-clock and CPU timers for the benchmark harness.

    The paper reports both CPU and total (elapsed) fractions in Table 2.
    Our substrate is entirely in memory, so CPU time tracks wall time
    closely — EXPERIMENTS.md discusses this deviation; both are still
    measured and reported. *)

type span = { wall_ms : float; cpu_ms : float }

let zero = { wall_ms = 0.0; cpu_ms = 0.0 }

let add a b = { wall_ms = a.wall_ms +. b.wall_ms; cpu_ms = a.cpu_ms +. b.cpu_ms }

(* Wall time on the program's one monotonic clock; CPU time from
   [Sys.time], which Table 2's CPU fraction needs. *)
let measure f =
  let w0 = Xmark_stats.now_ns () in
  let c0 = Sys.time () in
  let result = f () in
  let c1 = Sys.time () in
  let wall_ms = Xmark_stats.ms_since w0 in
  (result, { wall_ms; cpu_ms = (c1 -. c0) *. 1000.0 })

(* --- log-bucketed latency histogram --------------------------------------- *)

module Histogram = struct
  (* Geometric buckets, 8 per octave: bucket [i] covers
     [lo * 2^(i/8), lo * 2^((i+1)/8)) with lo = 1 microsecond, so any
     reported quantile is within ~4.5% of the true sample (half a bucket
     in log space).  272 buckets reach past 10^7 ms — far beyond any
     latency this harness can produce; the top bucket absorbs overflow
     and underflows land in bucket 0.  Constant memory regardless of
     sample count, O(1) add, mergeable across client domains. *)
  let buckets_per_octave = 8
  let nbuckets = 272
  let lo_ms = 0.001

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum_ms : float;
    mutable max_sample : float;
  }

  let create () =
    { counts = Array.make nbuckets 0; total = 0; sum_ms = 0.0; max_sample = 0.0 }

  let bucket_of v =
    if v <= lo_ms then 0
    else
      let i =
        int_of_float
          (Float.floor (float_of_int buckets_per_octave *. Float.log2 (v /. lo_ms)))
      in
      if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

  (* Geometric midpoint of a bucket: the representative value quantile
     queries report for samples that landed in it. *)
  let bucket_mid i =
    lo_ms *. Float.pow 2.0 ((float_of_int i +. 0.5) /. float_of_int buckets_per_octave)

  let add t v =
    let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
    t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
    t.total <- t.total + 1;
    t.sum_ms <- t.sum_ms +. v;
    if v > t.max_sample then t.max_sample <- v

  let merge ~into src =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
    into.total <- into.total + src.total;
    into.sum_ms <- into.sum_ms +. src.sum_ms;
    if src.max_sample > into.max_sample then into.max_sample <- src.max_sample

  let count t = t.total

  let max_ms t = t.max_sample

  let mean_ms t = if t.total = 0 then 0.0 else t.sum_ms /. float_of_int t.total

  (* Nearest-rank over the bucket counts; the top occupied bucket reports
     the exact recorded maximum rather than its midpoint, so p100 is
     always a real sample. *)
  let percentile t p =
    if t.total = 0 then 0.0
    else begin
      if p < 0.0 || p > 100.0 then
        invalid_arg (Printf.sprintf "Histogram.percentile: p out of range: %g" p);
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.total)) in
      let rank = if rank < 1 then 1 else if rank > t.total then t.total else rank in
      let top = ref 0 in
      Array.iteri (fun i c -> if c > 0 then top := i) t.counts;
      let rec find i seen =
        let seen = seen + t.counts.(i) in
        if seen >= rank then i else find (i + 1) seen
      in
      let i = find 0 0 in
      if i = !top then t.max_sample else bucket_mid i
    end
end
