(* xmark_bench — regenerate the tables and figures of the paper.

   The default exhibit, all, runs every one in sequence (and writes CSV
   series when XMARK_CSV_DIR is set); naming one exhibit and a factor is
   convenient while exploring.  The matrix exhibit and --stats-json run
   the full (system, query) grid, one freshly loaded store per cell.
   Performance is measured by perfbench, not here.

   --save-snapshot writes the loaded store of one system (--system,
   optionally --doc or --snapshot for the source) to a checksummed paged
   snapshot file and reports how much faster restoring it is than
   parse-and-shred; --snapshot makes the matrix exhibits load every cell
   from a snapshot instead of a document. *)

open Cmdliner
module Cli = Xmark_core.Cli
module Runner = Xmark_core.Runner
module Timing = Xmark_core.Timing

let run_stats_json file factor source systems queries =
  let module E = Xmark_core.Experiments in
  (* open before the (possibly long) matrix run, so a bad path fails fast *)
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let cells, _ = E.matrix ~factor ?source ~systems ~queries () in
      output_string oc (E.stats_json ~factor cells));
  Printf.eprintf "wrote %s (%d systems x %d queries at factor %g)\n%!" file
    (List.length systems) (List.length queries) factor;
  0

(* Load one system, snapshot it, and time a restore against the original
   load — the paper's bulkload column with persistence taken seriously. *)
let run_save system doc snapshot factor out =
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
      Timing.measure (fun () -> Runner.load ~source system)
    in
    let (), save_span =
      Timing.measure (fun () -> Runner.save_snapshot session out)
    in
    (load_span, save_span)
  in
  (* compact away the parsed store: the restore timing should reflect a
     fresh process restoring a snapshot, not a heap that still holds the
     store it was serialised from *)
  Gc.compact ();
  let restored, restore_span =
    Timing.measure (fun () -> Runner.load ~source:(`Snapshot out) system)
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

let run exhibit factor no_vec stats_json systems queries system doc snapshot save =
  let module E = Xmark_core.Experiments in
  Cli.install_no_vec no_vec;
  let source = Option.map (fun p -> `Snapshot p) snapshot in
  try
    match save with
    | Some out -> run_save system doc snapshot factor out
    | None -> (
        match stats_json with
        | Some file -> (
            try run_stats_json file factor source systems queries
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
                (* the deterministic digest goes to stdout: diffing two
                   runs is the determinism check, and a --snapshot run
                   against a parse run the persistence one *)
                let result, span =
                  Timing.measure (fun () ->
                      E.matrix ~factor ?source ~systems ~queries ())
                in
                print_string (E.matrix_digest ~factor result);
                Printf.eprintf "matrix: %d cells in %.1f ms\n%!"
                  (List.length (fst result)) span.Timing.wall_ms;
                0
            | "all" -> E.run_all ~factor (); 0
            | other ->
                Printf.eprintf
                  "unknown exhibit %S (table1|table2|table3|fig3|fig4|genperf|scaling|fulltext|matrix|all)\n"
                  other;
                2))
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

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v (Cmd.info "xmark_bench" ~version:"1.0" ~doc)
    Term.(
      const run $ exhibit_arg
      $ Cli.factor ~default:Xmark_core.Experiments.default_factor ()
      $ Cli.no_vec $ Cli.stats_json $ Cli.systems
      $ Cli.queries
      $ Cli.system ~default:Xmark_core.Runner.B ()
      $ Cli.doc_file $ Cli.snapshot $ Cli.save_snapshot)

let () = exit (Cmd.eval' cmd)
