(* Full-text search over item descriptions — the paper's Q14 scenario
   ("the interaction [of full-text scanning] with structural mark-up is
   essential as the concepts are considered orthogonal").

     dune exec examples/fulltext_search.exe -- gold silver

   Looks up each word given on the command line (default: "gold", Q14's
   needle) in the descriptions of auction items, combining structure
   (only /site//item/description) with content (contains). *)

module MM = Xmark_store.Backend_mainmem
module Eval = Xmark_xquery.Eval.Make (MM)
module Dom = Xmark_xml.Dom

let () =
  let words =
    match Array.to_list Sys.argv with [] | [ _ ] -> [ "gold" ] | _ :: ws -> ws
  in
  let store = MM.of_string ~level:`Full (Xmark_xmlgen.Generator.to_string ~factor:0.02 ()) in

  List.iter
    (fun word ->
      (* structural + content predicate, exactly Q14's shape *)
      let query =
        Printf.sprintf
          {|for $i in /site//item
            where contains(string(exactly-one($i/description)), "%s")
            return <hit region="{name($i/..)}" name="{$i/name/text()}"/>|}
          word
      in
      let t0 = Xmark_stats.now_ns () in
      let hits = Eval.eval_string store query in
      let ms = Xmark_stats.ms_since t0 in
      Printf.printf "%-12s %3d items (%.1f ms)\n" word (List.length hits) ms;
      List.iteri
        (fun i item ->
          if i < 5 then
            match item with
            | Eval.C node ->
                Printf.printf "    [%s] %s\n"
                  (Option.value ~default:"?" (Dom.attr node "region"))
                  (Option.value ~default:"?" (Dom.attr node "name"))
            | _ -> ())
        hits;
      if List.length hits > 5 then Printf.printf "    ... and %d more\n" (List.length hits - 5);
      print_newline ())
    words;

  (* A keyword can also be combined with the inline markup structure, the
     way Q15/Q16 mix path depth and content: *)
  let emphasized =
    Eval.eval_string store "count(/site//item/description//emph/keyword)"
  in
  Printf.printf "Emphasized keyword phrases in item descriptions: %s\n"
    (match emphasized with [ it ] -> Eval.string_of_item store it | _ -> "?")
