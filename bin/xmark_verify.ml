(* xmark_verify — cross-system result verification.

   Runs the benchmark queries on all seven systems over the same
   document and compares each canonical result with System D's: the
   query-processor verification scenario of the paper's introduction.
   Exit status is 0 when every system agrees on every query, 1 on a
   divergence or an unreadable or unparsable document. *)

open Cmdliner
module Cli = Xmark_core.Cli
module Verification = Xmark_core.Verification

let run doc_file factor queries =
  let doc () =
    match doc_file with
    | Some path -> Cli.read_file path
    | None ->
        Printf.eprintf "(generating document at factor %g)\n%!" factor;
        Xmark_xmlgen.Generator.to_string ~factor ()
  in
  match Verification.compare_systems ~queries (doc ()) with
  | reports ->
      List.iter (fun r -> Format.printf "%a" Verification.pp_report r) reports;
      if Verification.all_agree reports then begin
        Format.printf "all systems agree on all %d queries@." (List.length reports);
        0
      end
      else begin
        Format.printf "DIVERGENCE DETECTED@.";
        1
      end
  | exception Xmark_xml.Sax.Parse_error { line; col; message } ->
      Printf.eprintf "parse error: line %d, column %d: %s\n" line col message;
      1
  | exception Sys_error m ->
      Printf.eprintf "error: %s\n" m;
      1

let cmd =
  let doc = "verify that all storage backends agree with System D on the benchmark queries" in
  Cmd.v (Cmd.info "xmark_verify" ~version:"1.0" ~doc)
    Term.(const run $ Cli.doc_file $ Cli.factor ~default:0.004 () $ Cli.queries)

let () = exit (Cmd.eval' cmd)
