(* In-process, single-client query rounds over one or more storage
   systems: the paper's Table 1 (bulkload) and Table 3 (query times).

   A round executes every prepared (system, query) plan once, in an order
   drawn from the seed; rounds repeat until the phase's time is up.  Every
   answer is checked against the pinned digest, so all systems must also
   agree with one another. *)

module Runner = Xmark_core.Runner
module Stats = Xmark_stats
open Bench

type plan = { sys : Runner.system; q : int; prepared : Runner.prepared }

(* "System D" -> "D" *)
let letter sys =
  let name = Runner.system_name sys in
  String.sub name (String.length name - 1) 1

(* Load one system from the document text; returns the session and the
   parse and build times in ms.  D and C parse first and build from the
   DOM — the same work their text loaders do — so the parse shows on its
   own; A and B stream SAX events straight into their stores, so their
   parse is part of the build. *)
let load_system text sys =
  match sys with
  | Runner.D | Runner.C ->
      let dom, parse_ms =
        Trace.timed_span "xml.parse" (fun () -> Xmark_xml.Sax.parse_string text)
      in
      let s, build_ms =
        Trace.timed_span "store.build" (fun () -> Runner.load ~source:(`Dom dom) sys)
      in
      (s, parse_ms, build_ms)
  | _ ->
      let s, build_ms =
        Trace.timed_span "store.build" (fun () -> Runner.load ~source:(`Text text) sys)
      in
      (s, 0.0, build_ms)

(* Execute one plan inside an "op" span; returns the op record and the
   answer's digest.  The op's latency is execute + canonical.  A traced
   op also records the Xmark_stats counters it moved, outside its span. *)
let execute ~traced ~req p =
  let c0 = if traced then Some (Stats.snapshot ()) else None in
  let (outcome, exec_ms), canon_ms, digest =
    Trace.span ~req "op" (fun () ->
        let ((outcome, _) as executed) =
          Trace.timed_span ~req "xquery.execute" (fun () -> Runner.execute_prepared p.prepared)
        in
        let canonical, canon_ms =
          Trace.timed_span ~req "xml.canonical" (fun () -> Runner.canonical outcome)
        in
        ( executed,
          canon_ms,
          Trace.span ~req "harness.digest" (fun () -> Digest.to_hex (Digest.string canonical)) ))
  in
  let counters = match c0 with Some s -> Stats.since s | None -> [] in
  ( {
      cls = Printf.sprintf "Q%d" p.q;
      system = letter p.sys;
      kind = kind_of_query p.q;
      ms = exec_ms +. canon_ms;
      ok = true;
      traced;
      parts = [ ("execute", exec_ms); ("canonical", canon_ms) ];
      counters;
      items = outcome.Runner.items;
    },
    digest )

let run ~systems cfg ~factor =
  let failures = ref [] in
  let check ~what p digest =
    if digest <> Pinned.digest ~factor p.q then
      failures :=
        Printf.sprintf "%s: %s Q%d answered %s, pinned %s" what (Runner.system_name p.sys)
          p.q digest (Pinned.digest ~factor p.q)
        :: !failures
  in
  let samples = Samples.create () in
  let sample = Samples.add samples in
  let build _rep =
    let text, gen_ms =
      Trace.timed_span "xmlgen.generate" (fun () -> Xmark_xmlgen.Generator.to_string ~factor ())
    in
    let sax0 = Stats.total "sax_events" in
    let t_load = Trace.now_ns () in
    let loaded = List.map (load_system text) systems in
    let load_ms = Trace.ms_since t_load in
    let sessions = List.map (fun (s, _, _) -> s) loaded in
    let total f = List.fold_left (fun acc l -> acc +. f l) 0.0 loaded in
    sample "xml.parse_ms" (total (fun (_, p, _) -> p));
    sample "store.build_ms" (total (fun (_, _, b) -> b));
    sample "xmlgen.generate_ms" gen_ms;
    sample "xml.sax_events" (float_of_int (Stats.total "sax_events" - sax0));
    sample "store.bytes_per_doc_byte"
      (float_of_int
         (List.fold_left (fun acc s -> acc + s.Runner.load_stats.Runner.db_bytes) 0 sessions)
      /. float_of_int (String.length text));
    let plans =
      List.concat_map
        (fun s ->
          List.init 20 (fun i ->
              let q = i + 1 in
              let prepared, ms =
                Trace.timed_span "xquery.compile" (fun () -> Runner.prepare s.Runner.store q)
              in
              sample "xquery.compile_ms" ms;
              { sys = s.Runner.system; q; prepared }))
        sessions
    in
    (* warm-up: one execution of every plan, gated like the phase *)
    Trace.span "warmup" (fun () ->
        List.iter
          (fun p ->
            let _, digest = execute ~traced:false ~req:0 p in
            check ~what:"warm-up" p digest)
          plans);
    (Array.of_list plans, load_ms, ignore)
  in
  let plans, setup_ms, load_ms = repeat_setup cfg build in
  let rng = Xmark_prng.Prng.create ~seed:(Int64.of_int cfg.seed) () in
  let req = ref 0 in
  (* Whole rounds until [seconds] have passed; the extra result is each
     round's time, the sum of its operations' latencies. *)
  let phase ~traced seconds =
    let t0 = Trace.now_ns () in
    let words0 = Gc.minor_words () in
    let ops = ref [] and rounds = ref [] in
    while Trace.ms_since t0 < seconds *. 1000.0 do
      let order = Array.copy plans in
      Xmark_prng.Prng.shuffle rng order;
      let round_ms = ref 0.0 in
      Array.iter
        (fun p ->
          incr req;
          let op, digest = execute ~traced ~req:!req p in
          check ~what:"phase" p digest;
          round_ms := !round_ms +. op.ms;
          ops := op :: !ops)
        order;
      rounds := !round_ms :: !rounds
    done;
    (List.rev !ops, Gc.minor_words () -. words0, !rounds)
  in
  let segs = run_phase cfg phase in
  let ops = phase_ops segs in
  let layers =
    if not cfg.trace then []
    else begin
      let traced = List.filter (fun o -> o.traced) ops in
      let part_median kind name =
        Stat.median
          (List.filter_map
             (fun o -> if kind = None || Some o.kind = kind then part name o else None)
             traced)
      in
      let per_system sys_letter =
        let mine = List.filter (fun o -> o.system = sys_letter) traced in
        let n = float_of_int (max 1 (List.length mine)) in
        let c name = float_of_int (sum_counter name mine) in
        [ ( "relational.batch_fill." ^ sys_letter,
            Stat.ratio (c "batch_tuples")
              (c "batches_produced" *. float_of_int Xmark_relational.Batch.block_size) );
          ("relational.vec_fallbacks." ^ sys_letter, c "vec_fallbacks" /. n);
          ("relational.index_hit_ratio." ^ sys_letter, Stat.ratio (c "index_hits") (c "index_lookups"));
          ("relational.hash_join_probes." ^ sys_letter, c "hash_join_probes" /. n) ]
      in
      let joins = List.filter (fun o -> o.kind = Join) traced in
      let spans = Trace.all () in
      Samples.medians samples
      @ [ ("xml.canonical_ms", part_median None "canonical");
          ("xquery.execute_path_ms", part_median (Some Path) "execute");
          ("xquery.execute_join_ms", part_median (Some Join) "execute");
          ( "xquery.nodes_scanned_per_item",
            Stat.ratio
              (float_of_int (sum_counter "nodes_scanned" traced))
              (float_of_int (List.fold_left (fun a o -> a + o.items) 0 traced)) );
          ( "xquery.join_probes",
            float_of_int (sum_counter "join_probes" joins) /. float_of_int (max 1 (List.length joins)) );
          ("harness.unattributed_pct", unattributed_pct spans);
          ("harness.trace_overhead_pct", trace_overhead_pct ops) ]
      @ runtime_layers segs
      @ List.concat_map
          (fun sys ->
            if List.mem sys systems then per_system (letter sys) else [])
          [ Runner.A; Runner.B; Runner.C ]
    end
  in
  {
    setup_ms;
    load_ms;
    ops;
    (* the fastest round: the throughput least moved by other tenants *)
    ops_per_s =
      float_of_int (Array.length plans)
      /. (Stat.minimum (List.concat_map (fun s -> s.extra) segs) /. 1000.0);
    rss_mb = peak_rss_mb ();
    gate_failures = List.rev !failures;
    layers;
  }
