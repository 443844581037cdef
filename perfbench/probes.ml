(* Post-phase probes of a traced run.  A served request hides its layers
   inside [Server.handle] (or inside a forked worker), so the traced run
   replays the pieces through their public entry points, each timed on
   its own. *)

module Runner = Xmark_core.Runner
module Stats = Xmark_stats
open Bench

let rounds = 3

(* Compile, execute and canonicalize each query on [session] [rounds]
   times, as a server does per request. *)
let session session queries =
  let compile = ref [] and path = ref [] and join = ref [] and canon = ref [] in
  let scanned = ref 0 and items = ref 0 and probes = ref 0 and joins = ref 0 in
  Trace.span "probe" (fun () ->
      for _ = 1 to rounds do
        List.iter
          (fun q ->
            let p, ms =
              Trace.timed_span "xquery.compile" (fun () -> Runner.prepare session.Runner.store q)
            in
            compile := ms :: !compile;
            let c0 = Stats.snapshot () in
            let outcome, ms =
              Trace.timed_span "xquery.execute" (fun () -> Runner.execute_prepared p)
            in
            let delta = Stats.since c0 in
            let count name = Option.value ~default:0 (List.assoc_opt name delta) in
            scanned := !scanned + count "nodes_scanned";
            items := !items + outcome.Runner.items;
            (match kind_of_query q with
            | Join ->
                join := ms :: !join;
                probes := !probes + count "join_probes";
                incr joins
            | _ -> path := ms :: !path);
            let _, ms =
              Trace.timed_span "xml.canonical" (fun () -> Runner.canonical outcome)
            in
            canon := ms :: !canon)
          queries
      done);
  [ ("xquery.compile_ms", Stat.median !compile);
    ("xquery.execute_path_ms", Stat.median !path);
    ("xquery.execute_join_ms", Stat.median !join);
    ("xml.canonical_ms", Stat.median !canon);
    ("xquery.nodes_scanned_per_item", Stat.ratio (float_of_int !scanned) (float_of_int !items));
    ("xquery.join_probes", Stat.ratio (float_of_int !probes) (float_of_int !joins)) ]

(* Restore a session from a snapshot file; returns it with the read time
   and the pager's hit ratio during the read. *)
let snapshot_read path sys =
  let c0 = Stats.snapshot () in
  let session, ms =
    Trace.timed_span "persist.snapshot_read" (fun () -> Runner.load ~source:(`Snapshot path) sys)
  in
  let delta = Stats.since c0 in
  let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name delta)) in
  ( session,
    [ ("persist.snapshot_read_ms", ms);
      ( "persist.pager_hit_ratio",
        Stat.ratio (count "pager_hits") (count "pager_hits" +. count "pager_misses") ) ] )
