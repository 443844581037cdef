module Prng = Xmark_prng.Prng

let check = Alcotest.check

let test_determinism () =
  let a = Prng.create ~seed:42L () and b = Prng.create ~seed:42L () in
  for _ = 1 to 1000 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_changes_stream () =
  let a = Prng.create ~seed:1L () and b = Prng.create ~seed:2L () in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 5)

let test_copy_replays () =
  let g = Prng.create () in
  for _ = 1 to 17 do
    ignore (Prng.bits64 g)
  done;
  let h = Prng.copy g in
  let xs = List.init 50 (fun _ -> Prng.bits64 g) in
  let ys = List.init 50 (fun _ -> Prng.bits64 h) in
  check Alcotest.(list int64) "copy replays the stream" xs ys

let test_split_independent () =
  let g = Prng.create () in
  let h = Prng.split g in
  let xs = List.init 20 (fun _ -> Prng.bits64 g) in
  let ys = List.init 20 (fun _ -> Prng.bits64 h) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_int_range () =
  let g = Prng.create () in
  for _ = 1 to 10_000 do
    let v = Prng.int g 7 in
    Alcotest.(check bool) "0 <= v < 7" true (v >= 0 && v < 7)
  done

let test_int_in_range () =
  let g = Prng.create () in
  for _ = 1 to 1000 do
    let v = Prng.int_in g 5 9 in
    Alcotest.(check bool) "5 <= v <= 9" true (v >= 5 && v <= 9)
  done

let test_int_uniformity () =
  let g = Prng.create () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d within 10%%" i)
        true
        (abs (c - expected) < expected / 10))
    buckets

let test_float_range () =
  let g = Prng.create () in
  for _ = 1 to 10_000 do
    let v = Prng.float g 3.5 in
    Alcotest.(check bool) "0 <= v < 3.5" true (v >= 0.0 && v < 3.5)
  done

let test_chance_extremes () =
  let g = Prng.create () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Prng.chance g 1.0);
    Alcotest.(check bool) "p=0 always false" false (Prng.chance g 0.0)
  done

let test_exponential_mean () =
  let g = Prng.create () in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.exponential g ~mean:4.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4.0" true (Float.abs (mean -. 4.0) < 0.15)

let test_gaussian_moments () =
  let g = Prng.create () in
  let n = 50_000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.gaussian g ~mean:10.0 ~stdev:2.0 in
    sum := !sum +. v;
    sum2 := !sum2 +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 10" true (Float.abs (mean -. 10.0) < 0.1);
  Alcotest.(check bool) "stdev near 2" true (Float.abs (sqrt var -. 2.0) < 0.1)

let test_shuffle_permutes () =
  let g = Prng.create () in
  let a = Array.init 100 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 100 Fun.id) sorted

let test_zipf_probabilities () =
  let z = Prng.Zipf.create ~n:100 ~s:1.0 in
  let total = ref 0.0 in
  for r = 0 to 99 do
    let p = Prng.Zipf.probability z r in
    Alcotest.(check bool) "p > 0" true (p > 0.0);
    total := !total +. p
  done;
  Alcotest.(check bool) "probabilities sum to 1" true (Float.abs (!total -. 1.0) < 1e-9);
  Alcotest.(check bool) "rank 0 most likely" true
    (Prng.Zipf.probability z 0 > Prng.Zipf.probability z 1)

let test_zipf_sampling () =
  let z = Prng.Zipf.create ~n:50 ~s:1.0 in
  let g = Prng.create () in
  let counts = Array.make 50 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let r = Prng.Zipf.sample z g in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 50);
    counts.(r) <- counts.(r) + 1
  done;
  (* empirical frequency of rank 0 should be near its probability *)
  let p0 = Prng.Zipf.probability z 0 in
  let f0 = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool) "rank-0 frequency matches" true (Float.abs (f0 -. p0) < 0.01);
  Alcotest.(check bool) "monotone head" true (counts.(0) > counts.(5))

let test_permutation_bijective () =
  List.iter
    (fun n ->
      let g = Prng.create () in
      let p = Prng.Permutation.create g n in
      Alcotest.(check int) "size" n (Prng.Permutation.size p);
      let seen = Array.make n false in
      for i = 0 to n - 1 do
        let j = Prng.Permutation.apply p i in
        Alcotest.(check bool) "in range" true (j >= 0 && j < n);
        Alcotest.(check bool) (Printf.sprintf "image %d unique" j) false seen.(j);
        seen.(j) <- true
      done)
    [ 1; 2; 3; 7; 64; 1000; 21750 ]

let test_permutation_deterministic () =
  let p1 = Prng.Permutation.create (Prng.create ~seed:9L ()) 500 in
  let p2 = Prng.Permutation.create (Prng.create ~seed:9L ()) 500 in
  for i = 0 to 499 do
    Alcotest.(check int) "same image" (Prng.Permutation.apply p1 i) (Prng.Permutation.apply p2 i)
  done

(* property tests *)

module Property = Xmark_check.Property

(* (seed, n): a small seed, below 10 three times in four, else below
   100; and n in [1, bound + 1] *)
let property name ~bound prop =
  { Property.name;
    gen =
      (fun g ->
        let seed = if Prng.chance g 0.75 then Prng.int g 10 else Prng.int g 100 in
        (seed, 1 + Prng.int g (bound + 1)));
    shrink = (fun _ -> Seq.empty); prop = (fun x -> if prop x then Ok "pass" else Error "violated");
    to_bytes = (fun (seed, n) -> Printf.sprintf "seed %d, n %d" seed n); ext = "txt" }

let prop_int_bounds =
  property "int g n is within [0, n)" ~bound:1000 (fun (seed, n) ->
      let v = Prng.int (Prng.create ~seed:(Int64.of_int seed) ()) n in
      v >= 0 && v < n)

let prop_permutation_roundtrip =
  property "permutation images are a permutation" ~bound:200 (fun (seed, n) ->
      let p = Prng.Permutation.create (Prng.create ~seed:(Int64.of_int seed) ()) n in
      let images = List.init n (Prng.Permutation.apply p) in
      List.sort_uniq compare images = List.init n Fun.id)

let case ~count ~seed p = Alcotest.test_case p.Property.name `Slow (Property.check ~count ~seed p)

let () =
  Alcotest.run "prng"
    [
      ( "core",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed changes stream" `Quick test_seed_changes_stream;
          Alcotest.test_case "copy replays" `Quick test_copy_replays;
          Alcotest.test_case "split independent" `Quick test_split_independent;
          Alcotest.test_case "int range" `Quick test_int_range;
          Alcotest.test_case "int_in range" `Quick test_int_in_range;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "zipf probabilities" `Quick test_zipf_probabilities;
          Alcotest.test_case "zipf sampling" `Quick test_zipf_sampling;
        ] );
      ( "permutation",
        [
          Alcotest.test_case "bijective" `Quick test_permutation_bijective;
          Alcotest.test_case "deterministic" `Quick test_permutation_deterministic;
        ] );
      ( "properties",
        [ case ~count:1000 ~seed:31L prop_int_bounds;
          case ~count:100 ~seed:32L prop_permutation_roundtrip ] );
    ]
