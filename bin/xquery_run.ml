(* xquery_run — execute XQuery against an XMark document.

   The document comes from a file, is generated on the fly, or is
   restored from a saved snapshot (--snapshot; --save-snapshot writes
   one); the query is a literal expression, a file, or one of the twenty
   benchmark queries by number.  The backend flag selects the storage
   architecture (Systems A-G of the paper), so the same query can be
   timed across physical mappings. *)

open Cmdliner
module Cli = Xmark_core.Cli

let read_file = Cli.read_file

let warn_paths doc qtext =
  (* Section 7's suggestion: warn when a path step names a tag that does
     not occur in the database instance. *)
  match Xmark_xquery.Parser.parse_query qtext with
  | exception _ -> ()
  | ast ->
      let module MM = Xmark_store.Backend_mainmem in
      let module PC = Xmark_xquery.Pathcheck.Make (MM) in
      let store = MM.of_string ~level:`Full doc in
      List.iter
        (fun w -> Format.eprintf "%a@." Xmark_xquery.Pathcheck.pp_warning w)
        (PC.check ~vocabulary:Xmark_xmlgen.Dtd.element_names store ast)

let print_summary doc =
  let module MM = Xmark_store.Backend_mainmem in
  let store = MM.of_string ~level:`Full doc in
  Format.printf "%a@?" Xmark_store.Summary.pp
    (Xmark_store.Summary.build (MM.dom_root store))

let run doc_file snapshot save_snapshot factor system query query_file query_number show_timing
    canonical_out warn summary explain no_vec =
  if explain then Xmark_stats.enable ();
  Cli.install_no_vec no_vec;
  let source, doc =
    match snapshot with
    | Some path -> (`Snapshot path, None)
    | None -> (
        match doc_file with
        | Some path ->
            let doc = read_file path in
            (`Text doc, Some doc)
        | None ->
            Printf.eprintf "(generating document at factor %g)\n%!" factor;
            let doc = Xmark_xmlgen.Generator.to_string ~factor () in
            (`Text doc, Some doc))
  in
  let session = Xmark_core.Runner.load ~source system in
  let store = session.Xmark_core.Runner.store in
  let stats = session.Xmark_core.Runner.load_stats in
  if show_timing then
    Printf.eprintf "bulkload: %.1f ms, %d bytes\n%!"
      stats.Xmark_core.Runner.load.Xmark_core.Timing.wall_ms stats.Xmark_core.Runner.db_bytes;
  (match save_snapshot with
  | None -> ()
  | Some out ->
      let (), span =
        Xmark_core.Timing.measure (fun () ->
            Xmark_core.Runner.save_snapshot session out)
      in
      Printf.eprintf "wrote snapshot %s in %.1f ms\n%!" out span.Xmark_core.Timing.wall_ms);
  let qtext_for_warning =
    match (query_number, query, query_file) with
    | Some n, _, _ -> Some (Xmark_core.Queries.text n)
    | None, Some q, _ -> Some q
    | None, None, Some f -> Some (read_file f)
    | None, None, None -> None
  in
  (* path warnings and the structural summary both need the document
     text; a snapshot-restored session does not keep it around *)
  if warn then begin
    match doc with
    | Some d -> Option.iter (warn_paths d) qtext_for_warning
    | None -> prerr_endline "--warn-paths needs a document source; skipped under --snapshot"
  end;
  if summary then begin
    match doc with
    | Some d ->
        print_summary d;
        if qtext_for_warning = None then exit 0
    | None -> prerr_endline "--summary needs a document source; skipped under --snapshot"
  end;
  let prepared =
    match (query_number, query, query_file) with
    | Some n, _, _ -> Xmark_core.Runner.prepare store n
    | None, Some q, _ -> Xmark_core.Runner.prepare_text store q
    | None, None, Some f -> Xmark_core.Runner.prepare_text store (read_file f)
    | None, None, None ->
        if save_snapshot <> None then exit 0;
        prerr_endline "no query given (use -q, --query-file or --benchmark N, or --summary alone)";
        exit 2
  in
  (* physical plan on stderr, before execution, like EXPLAIN would be *)
  if explain then begin
    Printf.eprintf "physical plan (%s):\n"
      (Xmark_core.Runner.system_name system);
    List.iter
      (fun line -> Printf.eprintf "  %s\n" line)
      (Xmark_core.Runner.plan_description prepared);
    flush stderr
  end;
  let outcome = Xmark_core.Runner.execute_prepared prepared in
  if show_timing then
    Printf.eprintf "compile: %.2f ms  execute: %.2f ms  items: %d\n%!"
      outcome.Xmark_core.Runner.compile.Xmark_core.Timing.wall_ms
      outcome.Xmark_core.Runner.execute.Xmark_core.Timing.wall_ms outcome.Xmark_core.Runner.items;
  if canonical_out then print_endline (Xmark_core.Runner.canonical outcome)
  else
    print_endline (Xmark_xml.Serialize.fragment_to_string outcome.Xmark_core.Runner.result);
  (* stats go to stderr so the result on stdout stays byte-identical with
     and without --explain *)
  if explain then Format.eprintf "%a@?" Xmark_stats.pp ();
  0

(* exit-code contract (README "Exit codes"): 1 = data/evaluation error,
   2 = bad invocation (cmdliner's own), 3 = valid query the selected
   system cannot run — distinct so scripts can tell "broken" from
   "unsupported on this backend". *)
let run_safe a b c d e f g h i j k l m n =
  try run a b c d e f g h i j k l m n with
  | Xmark_xquery.Parser.Error _ as ex ->
      Printf.eprintf "%s\n" (Xmark_xquery.Parser.describe_error "" ex);
      1
  | Xmark_core.Runner.Unsupported m ->
      Printf.eprintf "unsupported: %s\n" m;
      3
  | Xmark_xml.Sax.Parse_error { line; col; message } ->
      Printf.eprintf "parse error: line %d, column %d: %s\n" line col message;
      1
  | Xmark_persist.Corrupt m ->
      Printf.eprintf "snapshot error: %s\n" m;
      1
  | Invalid_argument m | Failure m | Sys_error m ->
      Printf.eprintf "error: %s\n" m;
      1

let query_arg =
  Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"XQUERY" ~doc:"Query text.")

let query_file_arg =
  Arg.(value & opt (some file) None & info [ "query-file" ] ~docv:"FILE" ~doc:"Query file.")

let number_arg =
  Arg.(value & opt (some int) None
       & info [ "b"; "benchmark" ] ~docv:"N" ~doc:"Run benchmark query N (1-20).")

let timing_arg = Arg.(value & flag & info [ "t"; "timing" ] ~doc:"Print timings to stderr.")

let canonical_arg =
  Arg.(value & flag & info [ "canonical" ] ~doc:"Print the canonical form used for result comparison.")

let summary_arg =
  Arg.(value & flag
       & info [ "summary" ]
           ~doc:"Print the document's structural summary (DataGuide): every label path with its \
                 cardinality.")

let warn_arg =
  Arg.(value & flag
       & info [ "warn-paths" ]
           ~doc:"Validate path expressions online: warn about steps naming tags that do not occur \
                 in the database (the paper's Section 7 suggestion).")

let cmd =
  let doc = "run XQuery against an XMark document on a chosen storage backend" in
  Cmd.v (Cmd.info "xquery_run" ~version:"1.0" ~doc)
    Term.(
      const run_safe $ Cli.doc_file $ Cli.snapshot $ Cli.save_snapshot
      $ Cli.factor ~default:0.005 ()
      $ Cli.system ~default:Xmark_core.Runner.D ()
      $ query_arg $ query_file_arg $ number_arg $ timing_arg $ canonical_arg $ warn_arg
      $ summary_arg $ Cli.explain $ Cli.no_vec)

let () = exit (Cmd.eval' cmd)
