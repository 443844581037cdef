(* Observation must not perturb: running any benchmark query on any
   system with statistics enabled yields the canonically identical
   result, item count, and subsequent registry state as running it with
   statistics disabled.  Property-tested over (system, query) pairs. *)

module Runner = Xmark_core.Runner
module Stats = Xmark_stats

let factor = 0.002

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor ())

let stores =
  lazy
    (List.map
       (fun sys -> (sys, (Runner.load ~source:(`Text (Lazy.force doc)) sys).Runner.store))
       Runner.all_systems)

let arb_case =
  let systems = Runner.all_systems in
  QCheck.(
    map
      (fun (si, q) -> (List.nth systems (si mod List.length systems), q))
      (pair (int_bound (List.length systems - 1)) (int_range 1 20)))

let show_case (sys, q) = Printf.sprintf "%s Q%d" (Runner.system_name sys) q

let prop_stats_invisible (sys, q) =
  let store = List.assq sys (Lazy.force stores) in
  Stats.disable ();
  Stats.reset ();
  let off = Runner.run store q in
  Stats.enable ();
  let on = Runner.run store q in
  Stats.disable ();
  Stats.reset ();
  let ok =
    String.equal (Runner.canonical off) (Runner.canonical on)
    && off.Runner.items = on.Runner.items
  in
  if not ok then QCheck.Test.fail_reportf "stats changed the result of %s" (show_case (sys, q));
  true

let test_differential =
  QCheck.Test.make ~count:40 ~name:"stats on/off yields identical results"
    (QCheck.set_print show_case arb_case)
    prop_stats_invisible

(* deterministic corner: every system on the join-heavy and re-parse-heavy
   queries, which exercise the most instrumented code paths *)
let test_hot_pairs () =
  List.iter
    (fun q ->
      List.iter
        (fun sys ->
          Alcotest.(check bool)
            (Printf.sprintf "%s Q%d unchanged" (Runner.system_name sys) q)
            true
            (prop_stats_invisible (sys, q)))
        Runner.all_systems)
    [ 8; 9; 10 ]

let () =
  Alcotest.run "stats-differential"
    [
      ( "property",
        [
          QCheck_alcotest.to_alcotest test_differential;
          Alcotest.test_case "hot pairs exhaustive" `Slow test_hot_pairs;
        ] );
    ]
