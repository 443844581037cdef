(* xmark_bench — regenerate individual tables/figures of the paper.

   `bench/main.exe` runs everything; this CLI picks one exhibit and a
   factor, which is convenient while exploring.  The matrix exhibit and
   --stats-json run the full (system, query) grid, optionally fanned out
   over a domain pool with --jobs; results are identical for any pool
   size.

   --save-snapshot writes the loaded store of one system (--system,
   optionally --doc or --snapshot for the source) to a checksummed paged
   snapshot file and reports how much faster restoring it is than
   parse-and-shred; --snapshot makes the matrix exhibits load every cell
   from a snapshot instead of a document. *)

open Cmdliner
module Cli = Xmark_core.Cli
module Runner = Xmark_core.Runner
module Timing = Xmark_core.Timing

let run_stats_json file factor jobs source pool systems queries =
  let module E = Xmark_core.Experiments in
  (* open before the (possibly long) matrix run, so a bad path fails fast *)
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let cells = E.stats_matrix ~factor ?source ?pool ~systems ~queries () in
      output_string oc (E.stats_json ~jobs ~factor cells));
  Printf.eprintf "wrote %s (%d systems x %d queries at factor %g)\n%!" file
    (List.length systems) (List.length queries) factor;
  0

let run_bench_out file runs factor jobs source pool systems queries =
  let module E = Xmark_core.Experiments in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let cells = E.bench_matrix ~factor ~runs ?source ?pool ~systems ~queries () in
      output_string oc (E.bench_json ~factor ~jobs ~runs cells));
  Printf.eprintf
    "wrote %s (%d systems x %d queries, median of %d run(s) at factor %g)\n%!" file
    (List.length systems) (List.length queries) (max 1 runs) factor;
  0

(* --- sharded scatter-gather bench (--shards) ------------------------------- *)

(* Median of [n] runs of [f], keeping at most one produced value alive
   (a factor-1 store is hundreds of MB; holding three would thrash). *)
let measure_runs n f =
  let v = ref None in
  let times =
    List.init n (fun _ ->
        v := None;
        let x, s = Timing.measure f in
        v := Some x;
        s.Timing.wall_ms)
  in
  (Option.get !v, Timing.median times)

type shard_query_cell = {
  sq_query : int;
  sq_items : int;
  sq_execute_ms : float;
  sq_digest : string;
}

type shard_config_cell = {
  sc_shards : int;  (* 0 = the unsharded baseline *)
  sc_load_ms : float;  (* partition (sharded only) + store builds *)
  sc_partition_ms : float;
  sc_cells : shard_query_cell list;
}

(* One configuration: build the store(s), then per-query execute
   medians.  The sharded path runs in process through
   [Runner.run_sharded] — sequential over shards, so on one core the
   K=1 column should sit within noise of the unsharded baseline and
   the K>1 columns expose the pure scatter-gather overhead. *)
let bench_shard_config ~runs ~system ~queries ~dom k =
  let module P = Xmark_shard.Partitioner in
  (* Level the field between configurations: compact away the previous
     configuration's (and at k=0 the generator's) garbage so the
     first-measured column does not absorb everyone's GC debt. *)
  Gc.compact ();
  if k = 0 then begin
    let session, load_ms =
      measure_runs runs (fun () -> Runner.load ~source:(`Dom dom) system)
    in
    let cells =
      List.map
        (fun q ->
          (* canonicalize inside the timed region: the sharded gather
             consumes canonical item strings, so both columns must pay
             for producing them or the comparison is lopsided *)
          let (outcome, canonical), ms =
            measure_runs runs (fun () ->
                let outcome = Runner.run_session session q in
                (outcome, Runner.canonical outcome))
          in
          {
            sq_query = q;
            sq_items = List.length outcome.Runner.result;
            sq_execute_ms = ms;
            sq_digest = Digest.to_hex (Digest.string canonical);
          })
        queries
    in
    { sc_shards = 0; sc_load_ms = load_ms; sc_partition_ms = 0.0; sc_cells = cells }
  end
  else begin
    let partition, partition_ms =
      measure_runs runs (fun () -> P.partition ~k dom)
    in
    let sharded, build_ms =
      measure_runs runs (fun () ->
          Runner.shard_sessions
            (Array.map
               (fun (sh : P.shard) -> Runner.load ~source:(`Dom sh.P.root) system)
               partition.P.shards))
    in
    let cells =
      List.map
        (fun q ->
          let (items, canonical), ms =
            measure_runs runs (fun () -> Runner.run_sharded sharded q)
          in
          {
            sq_query = q;
            sq_items = items;
            sq_execute_ms = ms;
            sq_digest = Digest.to_hex (Digest.string canonical);
          })
        queries
    in
    {
      sc_shards = k;
      sc_load_ms = partition_ms +. build_ms;
      sc_partition_ms = partition_ms;
      sc_cells = cells;
    }
  end

let shard_config_json c =
  Printf.sprintf
    "{\"shards\": %d, \"load_ms\": %.1f, \"partition_ms\": %.1f, \"queries\": [%s]}"
    c.sc_shards c.sc_load_ms c.sc_partition_ms
    (String.concat ", "
       (List.map
          (fun q ->
            Printf.sprintf
              "{\"query\": %d, \"class\": \"%s\", \"items\": %d, \
               \"execute_ms\": %.2f, \"digest\": \"%s\"}"
              q.sq_query
              (Xmark_core.Merge.class_name q.sq_query)
              q.sq_items q.sq_execute_ms q.sq_digest)
          c.sc_cells))

let run_shard_bench file runs factor system queries ks =
  let module Provenance = Xmark_core.Provenance in
  let runs = max 1 runs in
  let ks = List.sort_uniq compare (List.filter (fun k -> k >= 1) ks) in
  if ks = [] then failwith "--shards needs at least one K >= 1";
  Printf.eprintf "(generating document at factor %g)\n%!" factor;
  let dom = Xmark_xmlgen.Generator.to_dom ~factor () in
  (* the unsharded baseline supplies the reference digests every
     sharded configuration is gated against *)
  let configs =
    List.map
      (fun k ->
        Printf.eprintf "(benchmarking %s, median of %d run(s))\n%!"
          (if k = 0 then "unsharded baseline"
           else Printf.sprintf "%d shard(s)" k)
          runs;
        bench_shard_config ~runs ~system ~queries ~dom k)
      (0 :: ks)
  in
  let baseline = List.hd configs in
  let mismatches = ref 0 in
  List.iter
    (fun c ->
      if c.sc_shards > 0 then
        List.iter2
          (fun b s ->
            if b.sq_digest <> s.sq_digest then begin
              incr mismatches;
              Printf.eprintf "FAIL: Q%d at K=%d diverged from the baseline\n"
                s.sq_query c.sc_shards
            end)
          baseline.sc_cells c.sc_cells)
    configs;
  (* the human-readable scaling table *)
  Printf.printf "%-28s" "";
  List.iter
    (fun c ->
      Printf.printf "%12s"
        (if c.sc_shards = 0 then "unsharded"
         else Printf.sprintf "K=%d" c.sc_shards))
    configs;
  Printf.printf "\n%-28s" "load ms (partition+build)";
  List.iter (fun c -> Printf.printf "%12.1f" c.sc_load_ms) configs;
  print_newline ();
  List.iteri
    (fun i q ->
      Printf.printf "%-28s"
        (Printf.sprintf "Q%-3d %-14s exec ms" q
           (Xmark_core.Merge.class_name q));
      List.iter
        (fun c -> Printf.printf "%12.2f" (List.nth c.sc_cells i).sq_execute_ms)
        configs;
      print_newline ())
    queries;
  (match file with
  | None -> ()
  | Some file ->
      let json =
        Printf.sprintf
          "{\n \"description\": \"Sharded scatter-gather execution: load and \
           per-query execute medians for the unsharded store and K-shard \
           in-process scatter-gather (sequential over shards on this host), \
           same document, digest-gated against the unsharded answers.\",\n \
           \"provenance\": %s,\n \"factor\": %g,\n \"runs\": %d,\n \
           \"system\": \"%s\",\n \"configs\": [%s]\n}\n"
          (Provenance.json ~factor ~jobs:1 ~runs ())
          factor runs
          (let n = Runner.system_name system in
           String.sub n (String.length n - 1) 1)
          (String.concat ", " (List.map shard_config_json configs))
      in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc json);
      Printf.eprintf "wrote %s (%d configuration(s) x %d queries)\n%!" file
        (List.length configs) (List.length queries));
  if !mismatches > 0 then 1 else 0

(* Load one system, snapshot it, and time a restore against the original
   load — the paper's bulkload column with persistence taken seriously. *)
let run_save system doc snapshot factor pool out =
  let source =
    match (snapshot, doc) with
    | Some p, _ -> `Snapshot p
    | None, Some f -> `File f
    | None, None ->
        Printf.eprintf "(generating document at factor %g)\n%!" factor;
        `Text (Xmark_xmlgen.Generator.to_string ~factor ())
  in
  let load_span, save_span =
    (* scoped so the parsed store is dead before the restore is timed *)
    let session, load_span =
      Timing.measure (fun () -> Runner.load ?pool ~source system)
    in
    let (), save_span =
      Timing.measure (fun () -> Runner.save_snapshot ?pool session out)
    in
    (load_span, save_span)
  in
  (* compact away the parsed store: the restore timing should reflect a
     fresh process restoring a snapshot, not a heap that still holds the
     store it was serialised from *)
  Gc.compact ();
  let restored, restore_span =
    Timing.measure (fun () -> Runner.load ?pool ~source:(`Snapshot out) system)
  in
  ignore restored;
  let bytes = (Unix.stat out).Unix.st_size in
  Printf.eprintf "%s: wrote %s (%d bytes, %d pages) in %.1f ms\n"
    (Runner.system_name system) out bytes
    (bytes / Xmark_persist.Page_io.page_size)
    save_span.Timing.wall_ms;
  let source_desc =
    match source with `Snapshot _ -> "snapshot load" | _ -> "parse-and-shred"
  in
  Printf.eprintf "restore: %.1f ms vs %s: %.1f ms (%.1fx speedup)\n%!"
    restore_span.Timing.wall_ms source_desc load_span.Timing.wall_ms
    (load_span.Timing.wall_ms /. Float.max 0.001 restore_span.Timing.wall_ms);
  0

let run exhibit factor jobs no_vec stats_json bench_out bench_runs systems queries system doc
    snapshot save shards =
  let module E = Xmark_core.Experiments in
  Cli.install_no_vec no_vec;
  let pool = Cli.pool_of_jobs jobs in
  let source = Option.map (fun p -> `Snapshot p) snapshot in
  try
    match save with
    | Some out -> run_save system doc snapshot factor pool out
    | None when shards <> [] -> (
        try run_shard_bench bench_out bench_runs factor system queries shards
        with Failure m | Sys_error m ->
          Printf.eprintf "%s\n" m;
          2)
    | None -> (
        match stats_json with
        | Some file -> (
            try run_stats_json file factor jobs source pool systems queries
            with Failure m | Sys_error m ->
              Printf.eprintf "%s\n" m;
              2)
        | None -> (
            match bench_out with
            | Some file -> (
                try run_bench_out file bench_runs factor jobs source pool systems queries
                with Failure m | Sys_error m ->
                  Printf.eprintf "%s\n" m;
                  2)
            | None -> (
            match exhibit with
            | "table1" -> ignore (E.table1 ~factor ()); 0
            | "table2" -> ignore (E.table2 ~factor ()); 0
            | "table3" -> ignore (E.table3 ~factor ()); 0
            | "fig3" -> ignore (E.fig3 ()); 0
            | "fig4" -> ignore (E.fig4 ()); 0
            | "genperf" -> ignore (E.genperf ()); 0
            | "scaling" -> ignore (E.scaling ()); 0
            | "fulltext" -> ignore (E.fulltext ~factor ()); 0
            | "matrix" ->
                (* the deterministic digest goes to stdout: diffing a --jobs N
                   run against a --jobs 1 run is the parallel determinism
                   check, and a --snapshot run against a parse run the
                   persistence one *)
                let result, span =
                  Timing.measure (fun () ->
                      E.matrix ~factor ?source ?pool ~systems ~queries ())
                in
                print_string (E.matrix_digest ~factor result);
                Printf.eprintf "matrix: %d cells with %d job(s) in %.1f ms\n%!"
                  (List.length (fst result)) (max 1 jobs) span.Timing.wall_ms;
                0
            | "all" -> E.run_all ~factor (); 0
            | other ->
                Printf.eprintf
                  "unknown exhibit %S (table1|table2|table3|fig3|fig4|genperf|scaling|fulltext|matrix|all)\n"
                  other;
                2)))
  with
  (* exit-code contract (README "Exit codes"): 1 = data/evaluation
     error, 2 = bad invocation, 3 = valid query a system cannot run *)
  | Xmark_persist.Corrupt m ->
      Printf.eprintf "snapshot error: %s\n" m;
      1
  | Xmark_xml.Sax.Parse_error { line; col; message } ->
      Printf.eprintf "parse error: line %d, column %d: %s\n" line col message;
      1
  | Runner.Unsupported m ->
      Printf.eprintf "unsupported: %s\n" m;
      3

let exhibit_arg =
  Arg.(value & pos 0 string "all"
       & info [] ~docv:"EXHIBIT"
           ~doc:"table1, table2, table3, fig3, fig4, genperf, scaling, fulltext, matrix \
                 or all.")

let shards_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "shards" ] ~docv:"LIST"
        ~doc:
          "Sharded scatter-gather bench: for each K in the comma-separated \
           $(docv), partition the document into K shards and record load and \
           per-query execute medians (of $(b,--bench-runs) runs) next to the \
           unsharded baseline, digest-gating every sharded answer; with \
           $(b,--bench-out) the results are written as JSON.  Uses \
           $(b,--system) (so pass D for the main-memory reference).")

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v (Cmd.info "xmark_bench" ~version:"1.0" ~doc)
    Term.(
      const run $ exhibit_arg
      $ Cli.factor ~default:Xmark_core.Experiments.default_factor ()
      $ Cli.jobs $ Cli.no_vec $ Cli.stats_json $ Cli.bench_out $ Cli.bench_runs $ Cli.systems
      $ Cli.queries
      $ Cli.system ~default:Xmark_core.Runner.B ()
      $ Cli.doc_file $ Cli.snapshot $ Cli.save_snapshot $ shards_arg)

let () = exit (Cmd.eval' cmd)
