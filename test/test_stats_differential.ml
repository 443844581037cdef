(* Observation must not perturb: running any benchmark query on any
   system with statistics enabled yields the canonically identical
   result, item count, and subsequent registry state as running it with
   statistics disabled.  The domain is finite, so every (system, query)
   pair is checked: the two cases below split the 20 queries between
   them, the join-heavy and re-parse-heavy Q8-Q10 (the most instrumented
   code paths) in a case of their own. *)

module Runner = Xmark_core.Runner
module Stats = Xmark_stats

let stores =
  lazy
    (let doc = Xmark_xmlgen.Generator.to_string ~factor:0.002 () in
     List.map
       (fun sys -> (sys, (Runner.load ~source:(`Text doc) sys).Runner.store))
       Runner.all_systems)

let stats_invisible store sys q =
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
  if not ok then Alcotest.failf "stats changed the result of %s Q%d" (Runner.system_name sys) q

let hot = [ 8; 9; 10 ]

let check_queries queries () =
  List.iter
    (fun (sys, store) -> List.iter (stats_invisible store sys) queries)
    (Lazy.force stores)

let () =
  let rest = List.filter (fun q -> not (List.mem q hot)) (List.init 20 succ) in
  Alcotest.run "stats-differential"
    [
      ( "property",
        [
          Alcotest.test_case "stats on/off yields identical results" `Slow (check_queries rest);
          Alcotest.test_case "hot pairs exhaustive" `Slow (check_queries hot);
        ] );
    ]
