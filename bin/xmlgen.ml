(* xmlgen — the benchmark document generator CLI (paper, Section 4.5).

   Mirrors the original tool's interface: a scaling factor, an output file,
   an optional DOCTYPE, the split-document mode of Section 5, and a
   dry-run statistics mode. *)

open Cmdliner

let generate factor output dtd xsd split_per_file stats seed =
  let seed = Option.map Int64.of_int seed in
  if xsd then begin
    print_string (Xmark_xmlgen.Xsd.text ());
    exit 0
  end;
  if stats then begin
    let (bytes, elements), span =
      let t0 = Xmark_stats.now_ns () in
      let r = Xmark_xmlgen.Generator.measure ?seed ~factor () in
      (r, Xmark_stats.ms_since t0)
    in
    let c = Xmark_xmlgen.Profile.counts factor in
    Printf.printf "factor         %g\n" factor;
    Printf.printf "bytes          %d (%.2f MB)\n" bytes (float_of_int bytes /. 1048576.0);
    Printf.printf "elements       %d\n" elements;
    Printf.printf "persons        %d\n" c.Xmark_xmlgen.Profile.persons;
    Printf.printf "items          %d\n" c.Xmark_xmlgen.Profile.items;
    Printf.printf "open auctions  %d\n" c.Xmark_xmlgen.Profile.open_auctions;
    Printf.printf "closed auctions %d\n" c.Xmark_xmlgen.Profile.closed_auctions;
    Printf.printf "categories     %d\n" c.Xmark_xmlgen.Profile.categories;
    Printf.printf "generation     %.1f ms\n" span;
    0
  end
  else
    match split_per_file with
    | Some per_file ->
        let dir = match output with Some o -> o | None -> "." in
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        let info = Xmark_xmlgen.Generator.to_split_files ?seed ~factor ~dir ~per_file () in
        Printf.printf "wrote %d files (%d entities) under %s\n"
          (List.length info.Xmark_xmlgen.Sink.files)
          info.Xmark_xmlgen.Sink.entities dir;
        if dtd then begin
          let oc = open_out (Filename.concat dir "auction-split.dtd") in
          output_string oc Xmark_xmlgen.Dtd.text_split;
          close_out oc;
          Printf.printf "wrote %s (IDREFs downgraded for split mode, cf. Section 5)\n"
            (Filename.concat dir "auction-split.dtd")
        end;
        0
    | None -> (
        match output with
        | Some path ->
            Xmark_xmlgen.Generator.to_file ?seed ~dtd ~factor path;
            Printf.printf "wrote %s\n" path;
            0
        | None ->
            if dtd then print_string Xmark_xmlgen.Dtd.text;
            print_string (Xmark_xmlgen.Generator.to_string ?seed ~factor ());
            0)

let output_arg =
  let doc = "Output file (or directory in split mode); stdout by default." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc)

let dtd_arg =
  let doc = "Emit the benchmark DTD (inline DOCTYPE, or auction-split.dtd in split mode)." in
  Arg.(value & flag & info [ "d"; "dtd" ] ~doc)

let split_arg =
  let doc =
    "Split mode (Section 5): write $(docv) entities (persons, items, auctions, categories) per \
     file instead of one document."
  in
  Arg.(value & opt (some int) None & info [ "s"; "split" ] ~docv:"N" ~doc)

let xsd_arg =
  let doc = "Print the XML Schema for the benchmark document and exit." in
  Arg.(value & flag & info [ "xsd" ] ~doc)

let stats_arg =
  let doc = "Print document statistics without writing any output." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let cmd =
  let doc = "generate the scalable XMark auction document" in
  let info = Cmd.info "xmlgen" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const generate
      $ Xmark_core.Cli.factor ~default:0.01 ()
      $ output_arg $ dtd_arg $ xsd_arg $ split_arg $ stats_arg $ Xmark_core.Cli.seed)

let () = exit (Cmd.eval' cmd)
