(* The domain pool's determinism contract: for any pool size, a
   parallel region returns the same values, raises the same exception
   and leaves the same statistics totals as running the chunks
   sequentially.  Exercised at three levels — the pool primitives, the
   partitioned bulkloads of Systems B and C, and the full benchmark
   matrix (7 systems x 20 queries with --jobs 4 vs --jobs 1). *)

module P = Xmark_parallel
module Runner = Xmark_core.Runner
module Stats = Xmark_core.Stats

(* --- pool primitives ------------------------------------------------------ *)

let test_map_order () =
  P.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 (fun i -> i) in
      Alcotest.(check (list int))
        "map preserves input order" (List.map (fun i -> i * i) xs)
        (P.map pool (fun i -> i * i) xs))

let test_map_chunks_partition () =
  P.with_pool ~jobs:3 (fun pool ->
      let xs = Array.init 1000 (fun i -> i) in
      let chunks = P.map_chunks pool Array.to_list xs in
      Alcotest.(check bool) "at least one chunk" true (Array.length chunks > 0);
      Alcotest.(check (list int))
        "chunks are contiguous and complete" (Array.to_list xs)
        (List.concat (Array.to_list chunks)))

let test_map_chunks_empty () =
  P.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "empty input yields no chunks" 0
        (Array.length (P.map_chunks pool Array.length [||])))

let test_map_chunks_more_chunks_than_items () =
  P.with_pool ~jobs:4 (fun pool ->
      let chunks = P.map_chunks pool ~chunks:64 Array.to_list [| 1; 2; 3 |] in
      Alcotest.(check (list int))
        "degenerates to one item per chunk" [ 1; 2; 3 ]
        (List.concat (Array.to_list chunks)))

let test_pool_reuse () =
  (* a pool survives many fork/join batches *)
  P.with_pool ~jobs:4 (fun pool ->
      for batch = 1 to 20 do
        let got = P.map pool (fun i -> i + batch) [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        Alcotest.(check (list int))
          (Printf.sprintf "batch %d" batch)
          (List.map (fun i -> i + batch) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
          got
      done)

exception Boom of int

let test_exception_propagation () =
  P.with_pool ~jobs:4 (fun pool ->
      match P.map pool (fun i -> if i mod 3 = 0 then raise (Boom i) else i) (List.init 30 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          (* several tasks raise; the lowest-indexed one wins, for any
             pool size and any completion order *)
          Alcotest.(check int) "lowest-indexed exception re-raised" 0 i)

let test_nested_pool_runs_inline () =
  P.with_pool ~jobs:2 (fun pool ->
      let got =
        P.map pool
          (fun i -> List.fold_left ( + ) 0 (P.map pool (fun j -> i * j) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "nested regions run inline" [ 6; 12; 18; 24 ] got)

let test_stats_merge_deterministic () =
  (* counters bumped inside tasks land in the submitting domain's
     registry with totals equal to a sequential run *)
  let count jobs =
    Stats.reset ();
    Stats.enable ();
    P.with_pool ~jobs (fun pool ->
        ignore
          (P.map pool
             (fun i ->
               Stats.incr ~by:i "parallel_test_ticks";
               i)
             (List.init 64 Fun.id)));
    let t = Stats.total "parallel_test_ticks" in
    Stats.reset ();
    t
  in
  Alcotest.(check int) "4-way totals = sequential totals" (count 1) (count 4)

(* --- parallel bulkload equivalence ---------------------------------------- *)

let factor = 0.002

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor ())

let canonicals store = List.map (fun q -> Runner.canonical (Runner.run store q)) [ 1; 2; 8; 15; 20 ]

let check_parallel_load sys () =
  let seq = (Runner.load ~source:(`Text (Lazy.force doc)) sys).Runner.store in
  P.with_pool ~jobs:4 (fun pool ->
      let par = (Runner.load ~pool ~source:(`Text (Lazy.force doc)) sys).Runner.store in
      List.iter2
        (Alcotest.(check string) (Runner.system_name sys ^ " parallel load = sequential load"))
        (canonicals seq) (canonicals par))

(* --- matrix differential: --jobs 4 vs --jobs 1 ---------------------------- *)

let test_matrix_differential () =
  let module E = Xmark_core.Experiments in
  let mfactor = 0.001 in
  let digest pool = E.matrix_digest ~factor:mfactor (E.matrix ~factor:mfactor ?pool ()) in
  let sequential = digest None in
  let parallel = P.with_pool ~jobs:4 (fun pool -> digest (Some pool)) in
  Alcotest.(check string) "7 systems x 20 queries, --jobs 4 = --jobs 1" sequential parallel

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          t "map preserves order" test_map_order;
          t "map_chunks partitions contiguously" test_map_chunks_partition;
          t "map_chunks on empty input" test_map_chunks_empty;
          t "more chunks than items" test_map_chunks_more_chunks_than_items;
          t "pool reuse across batches" test_pool_reuse;
          t "lowest-index exception propagates" test_exception_propagation;
          t "nested pool use runs inline" test_nested_pool_runs_inline;
          t "stats merge is deterministic" test_stats_merge_deterministic;
        ] );
      ( "bulkload",
        [
          t "System B shredded partitioned load" (check_parallel_load Runner.B);
          t "System C schema sectioned load" (check_parallel_load Runner.C);
        ] );
      ("matrix", [ t "jobs=4 digest = jobs=1 digest" test_matrix_differential ]);
    ]
