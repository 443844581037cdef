(* The log-bucketed latency histogram behind the service workload
   driver's tail-latency reports: its nearest-rank percentile selection,
   then its bucket mechanics. *)

module Timing = Xmark_core.Timing
module H = Timing.Histogram

let checkf = Alcotest.(check (float 1e-9))

(* The exact statistic the histogram approximates: nearest rank on the
   sorted samples, the smallest sample with at least p% of the
   population at or below it. *)
let nearest_rank p samples =
  let sorted = Array.of_list (List.sort Float.compare samples) in
  let n = Array.length sorted in
  sorted.(max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))) - 1)

let hist_of samples =
  let h = H.create () in
  List.iter (H.add h) samples;
  h

(* Within half a bucket (~4.5%) of the exact nearest-rank sample. *)
let check_near name exact approx =
  if abs_float (approx -. exact) /. exact > 0.045 then
    Alcotest.failf "%s: %.4f vs exact %.4f" name approx exact

(* --- nearest-rank percentile selection ------------------------------------ *)

let test_percentile_single () =
  (* one sample is the top occupied bucket, reported exactly *)
  let h = hist_of [ 7.0 ] in
  checkf "p50 of one sample" 7.0 (H.percentile h 50.0);
  checkf "p0 of one sample" 7.0 (H.percentile h 0.0);
  checkf "p100 of one sample" 7.0 (H.percentile h 100.0)

let test_percentile_nearest_rank () =
  (* samples 1..10 sit at least 10% apart, so a rank off by one lands
     outside the half-bucket tolerance; the dense samples of the
     relative-error test below cannot show that *)
  let s = List.init 10 (fun i -> float_of_int (i + 1)) in
  let h = hist_of s in
  List.iter
    (fun p -> check_near (Printf.sprintf "p%g" p) (nearest_rank p s) (H.percentile h p))
    [ 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ]

let test_percentile_unsorted () =
  let sorted = List.init 10 (fun i -> float_of_int (i + 1)) in
  let shuffled = [ 9.0; 1.0; 5.0; 10.0; 2.0; 8.0; 3.0; 7.0; 4.0; 6.0 ] in
  List.iter
    (fun p ->
      checkf (Printf.sprintf "p%g independent of insertion order" p)
        (H.percentile (hist_of sorted) p)
        (H.percentile (hist_of shuffled) p))
    [ 0.0; 25.0; 50.0; 90.0; 100.0 ]

let test_percentile_errors () =
  let h = hist_of [ 1.0 ] in
  (match H.percentile h 101.0 with
  | _ -> Alcotest.fail "p out of range accepted"
  | exception Invalid_argument _ -> ());
  match H.percentile h (-1.0) with
  | _ -> Alcotest.fail "negative p accepted"
  | exception Invalid_argument _ -> ()

let test_median () =
  check_near "odd" 2.0 (H.percentile (hist_of [ 3.0; 1.0; 2.0 ]) 50.0);
  (* even count: nearest rank picks the lower middle, never an
     interpolation between the two *)
  check_near "even" 2.0 (H.percentile (hist_of [ 4.0; 1.0; 3.0; 2.0 ]) 50.0)

(* --- histogram ------------------------------------------------------------- *)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  checkf "p50 of empty" 0.0 (H.percentile h 50.0);
  checkf "max of empty" 0.0 (H.max_ms h);
  checkf "mean of empty" 0.0 (H.mean_ms h)

let test_hist_relative_error () =
  (* 8 buckets per octave => any quantile is within ~4.5% of the true
     sample value (half a bucket: 2^(1/16) - 1) *)
  let samples = List.init 1000 (fun i -> 0.01 +. (float_of_int i *. 0.37)) in
  let h = hist_of samples in
  Alcotest.(check int) "count" 1000 (H.count h);
  List.iter
    (fun p -> check_near (Printf.sprintf "p%g" p) (nearest_rank p samples) (H.percentile h p))
    [ 10.0; 50.0; 90.0; 99.0 ]

let test_hist_max_exact () =
  (* the maximum is tracked exactly, not bucket-rounded *)
  let h = H.create () in
  List.iter (H.add h) [ 0.5; 123.456; 3.0 ];
  checkf "max" 123.456 (H.max_ms h);
  checkf "p100 reports the exact max" 123.456 (H.percentile h 100.0)

let test_hist_merge () =
  let a = H.create () and b = H.create () and whole = H.create () in
  let sa = List.init 500 (fun i -> 0.001 *. float_of_int (i + 1)) in
  let sb = List.init 500 (fun i -> 1.0 +. (0.01 *. float_of_int i)) in
  List.iter (H.add a) sa;
  List.iter (H.add b) sb;
  List.iter (H.add whole) (sa @ sb);
  H.merge ~into:a b;
  Alcotest.(check int) "merged count" (H.count whole) (H.count a);
  checkf "merged max" (H.max_ms whole) (H.max_ms a);
  List.iter
    (fun p ->
      checkf
        (Printf.sprintf "merged p%g equals whole-population p%g" p p)
        (H.percentile whole p) (H.percentile a p))
    [ 25.0; 50.0; 75.0; 99.0 ]

let test_hist_degenerate_samples () =
  let h = H.create () in
  H.add h 0.0;
  H.add h (-5.0);
  H.add h nan;
  Alcotest.(check int) "all clamped samples counted" 3 (H.count h);
  checkf "clamped to zero" 0.0 (H.percentile h 50.0)

let () =
  Alcotest.run "timing"
    [
      ( "percentiles",
        [
          Alcotest.test_case "single sample" `Quick test_percentile_single;
          Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "unsorted input" `Quick test_percentile_unsorted;
          Alcotest.test_case "errors" `Quick test_percentile_errors;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "relative error bound" `Quick test_hist_relative_error;
          Alcotest.test_case "exact maximum" `Quick test_hist_max_exact;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "degenerate samples" `Quick test_hist_degenerate_samples;
        ] );
    ]
