(* The execution-statistics layer: counter/scope semantics of the
   registry itself, then behavioral checks that the engine's
   instrumentation records what the paper's architecture discussion
   predicts — System G pays the parse on every execution, caches hit on
   the second run of a compiled query — and the one clock every timer
   reads. *)

module Stats = Xmark_stats
module Runner = Xmark_core.Runner
module Timing = Xmark_core.Timing

let factor = 0.001

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor ())

(* Every test leaves the registry disabled and empty. *)
let fixture f () =
  Stats.reset ();
  Stats.disable ();
  Fun.protect
    ~finally:(fun () ->
      Stats.reset ();
      Stats.disable ())
    f

let counter l name = Option.value ~default:0 (List.assoc_opt name l)

(* --- registry semantics --------------------------------------------------- *)

let test_disabled_noop () =
  Stats.incr "x";
  Stats.incr ~by:100 "x";
  Alcotest.(check int) "nothing recorded while disabled" 0 (Stats.total "x");
  Alcotest.(check (list (pair string (list (pair string int))))) "no scopes" [] (Stats.to_assoc ())

let test_enabled_counting () =
  Stats.enable ();
  Stats.incr "x";
  Stats.incr ~by:5 "x";
  Stats.incr "y";
  Alcotest.(check int) "x accumulated" 6 (Stats.get ~scope:"" "x");
  Alcotest.(check int) "y accumulated" 1 (Stats.get ~scope:"" "y");
  Alcotest.(check int) "absent counter reads 0" 0 (Stats.get ~scope:"" "z")

let test_scope_nesting () =
  Stats.enable ();
  Alcotest.(check string) "top scope is empty path" "" (Stats.current_scope ());
  Stats.with_scope "a" (fun () ->
      Stats.incr "x";
      Alcotest.(check string) "inner path" "a" (Stats.current_scope ());
      Stats.with_scope "b" (fun () ->
          Stats.incr "x";
          Alcotest.(check string) "nested path joins with /" "a/b" (Stats.current_scope ())));
  Alcotest.(check string) "path restored" "" (Stats.current_scope ());
  Alcotest.(check int) "outer scope count" 1 (Stats.get ~scope:"a" "x");
  Alcotest.(check int) "inner scope count" 1 (Stats.get ~scope:"a/b" "x");
  Alcotest.(check int) "total sums scopes" 2 (Stats.total "x")

let test_scope_restored_on_exception () =
  Stats.enable ();
  (try Stats.with_scope "boom" (fun () -> failwith "inside") with Failure _ -> ());
  Alcotest.(check string) "path restored after raise" "" (Stats.current_scope ());
  Stats.incr "after";
  Alcotest.(check int) "subsequent counts land at top" 1 (Stats.get ~scope:"" "after")

let test_disabled_scope_transparent () =
  let path = Stats.with_scope "z" (fun () -> Stats.current_scope ()) in
  Alcotest.(check string) "with_scope is identity while disabled" "" path

let test_snapshot_since () =
  Stats.enable ();
  Stats.incr ~by:3 "x";
  let snap = Stats.snapshot () in
  Stats.incr ~by:2 "x";
  Stats.incr "y";
  Alcotest.(check (list (pair string int)))
    "since reports only the delta" [ ("x", 2); ("y", 1) ] (Stats.since snap);
  Alcotest.(check (list (pair string int)))
    "no change since a fresh snapshot" [] (Stats.since (Stats.snapshot ()))

let test_reset_clears () =
  Stats.enable ();
  Stats.with_scope "s" (fun () -> Stats.incr "x");
  Stats.reset ();
  Alcotest.(check int) "cleared" 0 (Stats.total "x");
  (* the registry must stay usable after reset *)
  Stats.incr "x";
  Alcotest.(check int) "usable after reset" 1 (Stats.total "x")

let test_json_stable_schema () =
  let json = Stats.json_of_counters [] in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "inventory key %s present when untouched" name)
        true
        (let needle = Printf.sprintf "\"%s\": 0" name in
         let rec scan i =
           i + String.length needle <= String.length json
           && (String.sub json i (String.length needle) = needle || scan (i + 1))
         in
         scan 0))
    Stats.counter_inventory;
  let extra = Stats.json_of_counters [ ("custom_counter", 7) ] in
  Alcotest.(check bool) "extra counters survive" true
    (let needle = "\"custom_counter\": 7" in
     let rec scan i =
       i + String.length needle <= String.length extra
       && (String.sub extra i (String.length needle) = needle || scan (i + 1))
     in
     scan 0)

(* --- behavioral: the engine records what the architecture predicts -------- *)

let test_run_stats_deterministic_per_run () =
  let store = (Runner.load ~source:(`Text (Lazy.force doc)) Runner.D).Runner.store in
  Stats.enable ();
  let o1 = Runner.run store 1 in
  let o2 = Runner.run store 1 in
  let n1 = counter o1.Runner.run_stats "nodes_scanned" in
  let n2 = counter o2.Runner.run_stats "nodes_scanned" in
  Alcotest.(check bool) "Q1 scans nodes" true (n1 > 0);
  Alcotest.(check int) "identical runs scan identically" n1 n2;
  (* run_stats is a per-run delta: the global registry holds the sum *)
  Alcotest.(check int) "registry accumulated both runs" (n1 + n2) (Stats.total "nodes_scanned")

let test_tag_array_cache_hits_on_second_run () =
  (* the tag-array cache lives in the compiled query, so reusing one
     compiled query must hit on the second execution *)
  let module MM = Xmark_store.Backend_mainmem in
  let module Ev = Xmark_xquery.Eval.Make (MM) in
  let store = MM.of_string ~level:`Full (Lazy.force doc) in
  let compiled =
    Ev.compile ~optimize:true store
      (Xmark_xquery.Parser.parse_query (Xmark_core.Queries.text 6))
  in
  Stats.enable ();
  ignore (Ev.run compiled);
  Alcotest.(check bool) "first run populates the cache" true
    (Stats.total "tag_array_cache_misses" > 0);
  let snap = Stats.snapshot () in
  ignore (Ev.run compiled);
  let delta = Stats.since snap in
  Alcotest.(check bool) "second run hits" true (counter delta "tag_array_cache_hits" > 0);
  Alcotest.(check int) "second run never misses" 0 (counter delta "tag_array_cache_misses")

let test_system_g_pays_parse_every_execution () =
  (* Figure 4's point: G has no database, so sax_events appear inside
     every execution; D parsed once at bulkload and never again *)
  let gstore = (Runner.load ~source:(`Text (Lazy.force doc)) Runner.G).Runner.store in
  let dstore = (Runner.load ~source:(`Text (Lazy.force doc)) Runner.D).Runner.store in
  Stats.enable ();
  let g1 = Runner.run gstore 1 in
  let g2 = Runner.run gstore 1 in
  let d = Runner.run dstore 1 in
  Alcotest.(check bool) "G parses during 1st execution" true
    (counter g1.Runner.run_stats "sax_events" > 0);
  Alcotest.(check int) "G parses the same document again"
    (counter g1.Runner.run_stats "sax_events")
    (counter g2.Runner.run_stats "sax_events");
  Alcotest.(check int) "D never parses at query time" 0 (counter d.Runner.run_stats "sax_events")

(* Which join plan each system runs: every Eval-backed system builds a
   hash table for Q8's equi-join and probes it (join_probes counts only
   probes a usable table answers), while the theta joins Q11/Q12 stay
   nested loops everywhere but on D, whose hand plan answers them from
   sorted key tables (counted under the same names). *)
let test_join_plans_per_system () =
  Stats.enable ();
  let counters sys =
    let store = (Runner.load ~source:(`Text (Lazy.force doc)) sys).Runner.store in
    fun name q -> counter (Runner.run store q).Runner.run_stats name
  in
  List.iter
    (fun sys ->
      let name = Runner.system_name sys and counter = counters sys in
      Alcotest.(check bool) (name ^ " Q8 hash join") true (counter "join_tables_built" 8 > 0);
      Alcotest.(check bool) (name ^ " Q8 hash probes") true (counter "join_probes" 8 > 0);
      Alcotest.(check int) (name ^ " Q11 nested loop") 0 (counter "join_tables_built" 11);
      Alcotest.(check int) (name ^ " Q12 nested loop") 0 (counter "join_tables_built" 12))
    Runner.[ A; B; E; F; G ];
  let d = counters Runner.D "join_tables_built" in
  Alcotest.(check bool) "System D Q11 sorted-key join" true (d 11 > 0);
  Alcotest.(check bool) "System D Q12 sorted-key join" true (d 12 > 0)

let test_bulkload_scope_attribution () =
  Stats.enable ();
  let _ = Runner.load ~source:(`Text (Lazy.force doc)) Runner.D in
  Alcotest.(check bool) "bulkload parse attributed to the bulkload scope" true
    (Stats.get ~scope:"bulkload" "sax_events" > 0)

(* --- the one clock -------------------------------------------------------- *)

(* A 20 ms sleep must read as at least 20 ms and well under a second: a
   wrong nanosecond-to-millisecond divisor fails one side or the other. *)
let test_measure_single_run () =
  let calls = ref 0 in
  let v, span = Timing.measure (fun () -> incr calls; Unix.sleepf 0.02; 42) in
  Alcotest.(check int) "result returned" 42 v;
  Alcotest.(check int) "thunk ran exactly once" 1 !calls;
  if span.Timing.wall_ms < 20.0 || span.Timing.wall_ms >= 1000.0 then
    Alcotest.failf "a 20 ms sleep measured %.3f ms" span.Timing.wall_ms

let test_ms_since_monotonic () =
  let t0 = Stats.now_ns () in
  let a = Stats.ms_since t0 in
  let b = Stats.ms_since t0 in
  Alcotest.(check bool) "non-negative" true (a >= 0.0);
  Alcotest.(check bool) "non-decreasing" true (b >= a)

(* --- counters merged across domains ------------------------------------------ *)

(* Counters bumped on spawned domains reach the joining domain through
   [export_and_clear] / [absorb] with the same per-scope totals as a
   sequential run: the contract Workload's runner domains and the
   benchmark's sender domains rely on. *)
let test_stats_merge_deterministic () =
  Stats.enable ();
  let work d =
    Stats.with_scope "merge" (fun () ->
        for i = 1 to 16 do
          Stats.incr ~by:((d * 16) + i) "merge_test_ticks"
        done);
    Stats.incr "merge_test_tasks"
  in
  let domains = 4 in
  for d = 0 to domains - 1 do
    work d
  done;
  let sequential = Stats.to_assoc () in
  Stats.reset ();
  let exports =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            work d;
            Stats.export_and_clear ()))
    |> List.map Domain.join
  in
  Alcotest.(check int) "spawned domains count in their own registries" 0
    (Stats.total "merge_test_ticks");
  List.iter Stats.absorb exports;
  Alcotest.(check (list (pair string (list (pair string int)))))
    "4 domains merged = sequential totals" sequential (Stats.to_assoc ())

let () =
  let t name f = Alcotest.test_case name `Quick (fixture f) in
  Alcotest.run "stats"
    [
      ( "registry",
        [
          t "disabled incr is a no-op" test_disabled_noop;
          t "enabled counting" test_enabled_counting;
          t "scope nesting" test_scope_nesting;
          t "scope restored on exception" test_scope_restored_on_exception;
          t "disabled with_scope transparent" test_disabled_scope_transparent;
          t "snapshot / since" test_snapshot_since;
          t "reset clears" test_reset_clears;
          t "stable JSON schema" test_json_stable_schema;
          t "stats merge is deterministic" test_stats_merge_deterministic;
        ] );
      ( "engine",
        [
          t "per-run deltas deterministic" test_run_stats_deterministic_per_run;
          t "tag-array cache hits on 2nd run" test_tag_array_cache_hits_on_second_run;
          t "System G re-parses every execution" test_system_g_pays_parse_every_execution;
          t "bulkload scope attribution" test_bulkload_scope_attribution;
          t "join plan per system" test_join_plans_per_system;
        ] );
      ( "timing",
        [
          t "single run" test_measure_single_run;
          t "ms_since is monotonic" test_ms_since_monotonic;
        ] );
    ]
