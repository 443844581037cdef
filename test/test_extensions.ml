(* Extension features: online path validation (the paper's Section 7
   suggestion), the full-text access path (Section 6.9), and the
   experiment harness itself. *)

module MM = Xmark_store.Backend_mainmem
module E = Xmark_xquery.Eval.Make (MM)
module PC = Xmark_xquery.Pathcheck.Make (MM)
module Parser = Xmark_xquery.Parser
module Pathcheck = Xmark_xquery.Pathcheck
module Dom = Xmark_xml.Dom

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.004 ())

let store_full = lazy (MM.of_string ~level:`Full (Lazy.force doc))

let store_plain = lazy (MM.of_string ~level:`Plain (Lazy.force doc))

(* --- path validation ---------------------------------------------------- *)

let warnings_of q = PC.check (Lazy.force store_full) (Parser.parse_query q)

let test_pathcheck_clean_queries () =
  (* none of the twenty official queries should warn *)
  List.iter
    (fun info ->
      let ws = PC.check (Lazy.force store_full) (Parser.parse_query info.Xmark_core.Queries.text) in
      Alcotest.(check int)
        (Printf.sprintf "Q%d warns" info.Xmark_core.Queries.number)
        0 (List.length ws))
    Xmark_core.Queries.all

let test_pathcheck_typo () =
  match warnings_of "/site/people/persn/name" with
  | [ w ] -> Alcotest.(check string) "offending tag" "persn" w.Pathcheck.tag
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws)

let test_pathcheck_suggestion () =
  let ws =
    PC.check ~vocabulary:Xmark_xmlgen.Dtd.element_names (Lazy.force store_full)
      (Parser.parse_query "/site/people/persn")
  in
  (match ws with
  | [ w ] -> Alcotest.(check (option string)) "did you mean" (Some "person") w.Pathcheck.suggestion
  | _ -> Alcotest.fail "one warning expected");
  (* a tag far from everything gets no suggestion *)
  let ws2 =
    PC.check ~vocabulary:Xmark_xmlgen.Dtd.element_names (Lazy.force store_full)
      (Parser.parse_query "/site/zqxjwvk")
  in
  match ws2 with
  | [ w ] -> Alcotest.(check (option string)) "no suggestion" None w.Pathcheck.suggestion
  | _ -> Alcotest.fail "one warning expected"

let test_pathcheck_nested () =
  (* typos inside predicates and FLWOR clauses are found too *)
  let ws = warnings_of "for $p in /site/people/person[zzz] return $p/qqq" in
  Alcotest.(check (list string)) "both typos" [ "zzz"; "qqq" ]
    (List.map (fun w -> w.Pathcheck.tag) ws)

let test_pathcheck_dedup () =
  let ws = warnings_of "/site/typo/typo/typo" in
  Alcotest.(check int) "deduplicated" 1 (List.length ws)

let test_pathcheck_attributes_ignored () =
  (* attribute names are not element tags *)
  Alcotest.(check int) "no warning for attrs" 0
    (List.length (warnings_of "/site/people/person/@nonexistent"))

let test_pathcheck_needs_metadata () =
  (* a store without tag statistics cannot warn *)
  let ws = PC.check (Lazy.force store_plain) (Parser.parse_query "/site/typo") in
  Alcotest.(check int) "no stats, no warnings" 0 (List.length ws)

(* --- full-text search ----------------------------------------------------- *)

let manual_token_hits word =
  let d = Xmark_xml.Sax.parse_string (Lazy.force doc) in
  let is_alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let has_token s =
    let n = String.length s and ln = String.length word in
    let rec scan i =
      if i >= n then false
      else if not (is_alnum s.[i]) then scan (i + 1)
      else begin
        let j = ref i in
        while !j < n && is_alnum s.[!j] do
          incr j
        done;
        (!j - i = ln && String.lowercase_ascii (String.sub s i ln) = word) || scan !j
      end
    in
    scan 0
  in
  List.length (List.filter (fun it -> has_token (Dom.string_value it)) (Dom.descendants_named d "item"))

let ft word store = E.eval_string (Lazy.force store) (Printf.sprintf {|ft-search("item", "%s")|} word)

let test_ft_index_matches_scan () =
  List.iter
    (fun word ->
      let via_index = ft word store_full in
      let via_scan = ft word store_plain in
      Alcotest.(check int)
        (word ^ ": index = scan")
        (List.length via_scan) (List.length via_index);
      Alcotest.(check int) (word ^ ": matches manual count") (manual_token_hits word)
        (List.length via_index))
    [ "gold"; "the"; "zzzznothing" ]

let test_ft_case_insensitive () =
  Alcotest.(check int) "case-insensitive" (List.length (ft "gold" store_full))
    (List.length (ft "GOLD" store_full))

let test_ft_document_order () =
  let store = Lazy.force store_full in
  match E.eval_string store {|ft-search("item", "the")|} with
  | items ->
      let orders =
        List.filter_map (function E.N n -> Some (MM.order store n) | _ -> None) items
      in
      Alcotest.(check bool) "has results" true (orders <> []);
      Alcotest.(check bool) "document order" true (List.sort compare orders = orders)

let test_ft_is_subset_of_contains () =
  (* token hits are a subset of substring hits *)
  let store = Lazy.force store_full in
  let tokens = List.length (E.eval_string store {|ft-search("item", "gold")|}) in
  let substr =
    List.length
      (E.eval_string store
         {|for $i in /site//item where contains(string($i), "gold") return $i|})
  in
  Alcotest.(check bool) "subset" true (tokens <= substr)

(* --- experiment harness --------------------------------------------------- *)

let test_table1_rows () =
  let rows = Xmark_core.Experiments.table1 ~factor:0.001 () in
  Alcotest.(check int) "six systems" 6 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "positive size" true (r.Xmark_core.Experiments.t1_bytes > 0);
      Alcotest.(check bool) "positive time" true (r.Xmark_core.Experiments.t1_load_ms >= 0.0))
    rows

let test_fig3_linearity () =
  let rows = Xmark_core.Experiments.fig3 ~factors:[ 0.002; 0.004; 0.008 ] () in
  match rows with
  | [ a; b; c ] ->
      let r1 =
        float_of_int b.Xmark_core.Experiments.f3_bytes
        /. float_of_int a.Xmark_core.Experiments.f3_bytes
      in
      let r2 =
        float_of_int c.Xmark_core.Experiments.f3_bytes
        /. float_of_int b.Xmark_core.Experiments.f3_bytes
      in
      Alcotest.(check bool) "doubling factors ~doubles size" true
        (r1 > 1.6 && r1 < 2.4 && r2 > 1.6 && r2 < 2.4)
  | _ -> Alcotest.fail "three rows expected"

let test_table3_agreement () =
  let rows = Xmark_core.Experiments.table3 ~factor:0.002 ~queries:[ 1; 6; 17 ] () in
  List.iter
    (fun r -> Alcotest.(check bool) "systems agree" true r.Xmark_core.Experiments.t3_agree)
    rows

let test_fig4_covers_all_queries () =
  let rows = Xmark_core.Experiments.fig4 ~small:0.001 ~large:0.002 () in
  Alcotest.(check (list int)) "queries 1..20"
    (List.init 20 (fun i -> i + 1))
    (List.map (fun r -> r.Xmark_core.Experiments.f4_query) rows)

let test_loglog_slope () =
  let quadratic = List.map (fun x -> (x, 3.0 *. x *. x)) [ 1.0; 2.0; 4.0; 8.0 ] in
  let slope = Xmark_core.Experiments.loglog_slope quadratic in
  Alcotest.(check bool) "slope of x^2 is 2" true (Float.abs (slope -. 2.0) < 1e-6)

let test_fulltext_rows () =
  let rows = Xmark_core.Experiments.fulltext ~factor:0.002 ~words:[ "gold" ] () in
  match rows with
  | [ (_, _, warm, scan, _, _) ] ->
      Alcotest.(check bool) "warm index is no slower than scan" true (warm <= scan)
  | _ -> Alcotest.fail "one row expected"

(* --- verification ------------------------------------------------------- *)

let test_verification_agrees () =
  let reports =
    Xmark_core.Verification.compare_systems ~queries:[ 1; 5; 17 ] (Lazy.force doc)
  in
  Alcotest.(check int) "three reports" 3 (List.length reports);
  Alcotest.(check bool) "all agree" true (Xmark_core.Verification.all_agree reports);
  List.iter
    (fun r ->
      Alcotest.(check int) "seven systems" 7 (List.length r.Xmark_core.Verification.digests);
      let ds = List.map snd r.Xmark_core.Verification.digests in
      Alcotest.(check int) "identical digests" 1 (List.length (List.sort_uniq compare ds));
      Alcotest.(check bool) "no divergence" true (r.Xmark_core.Verification.divergence = None))
    reports

let test_verification_report_renders () =
  let reports = Xmark_core.Verification.compare_systems ~queries:[ 1 ] (Lazy.force doc) in
  let text = Format.asprintf "%a" Xmark_core.Verification.pp_report (List.hd reports) in
  Alcotest.(check bool) "mentions agree" true
    (String.length text > 10 &&
     let rec has i = i + 5 <= String.length text && (String.sub text i 5 = "agree" || has (i+1)) in
     has 0)

let test_diverge () =
  let diverge = Xmark_core.Verification.diverge in
  Alcotest.(check bool) "equal strings agree" true
    (diverge ~reference:"<a>x</a>" "<a>x</a>" = None);
  let check what ~reference candidate position excerpts =
    match diverge ~reference candidate with
    | None -> Alcotest.failf "%s: no divergence reported" what
    | Some d ->
        Alcotest.(check int) (what ^ " position") position d.Xmark_core.Verification.position;
        Alcotest.(check (pair string string)) (what ^ " excerpts") excerpts
          (d.reference_excerpt, d.candidate_excerpt)
  in
  (* excerpts start 20 bytes before the divergence *)
  let pad = String.make 100 '.' and dots = String.make 17 '.' in
  check "differ at byte 103" ~reference:(pad ^ "<a>x</a>") (pad ^ "<a>y</a>") 103
    (dots ^ "<a>x</a>", dots ^ "<a>y</a>");
  check "strict prefix" ~reference:"<a>x</a>" "<a>x</a><b/>" 8 ("<a>x</a>", "<a>x</a><b/>");
  check "prefix, shorter candidate" ~reference:"<a>x</a>\n<a>y</a>" "<a>x</a>" 8
    ("<a>x</a>\n<a>y</a>", "<a>x</a>")

(* Q10's shard gather groups persons by category; a person whose
   interests repeat a category is listed once under it, as the
   single-store evaluator lists them. *)
let test_merge_q10_repeated_category () =
  let module R = Xmark_core.Runner in
  let src =
    {|<site><people>
  <person id="p0"><name>Ann</name>
    <profile income="10"><interest category="c1"/><interest category="c2"/><interest category="c1"/></profile></person>
  <person id="p1"><name>Bob</name><profile><interest category="c2"/></profile></person>
  <person id="p2"><name>Cat</name></person>
</people></site>|}
  in
  let session = R.load ~source:(`Text src) R.D in
  let parts =
    List.map
      (function
        | Xmark_core.Merge.Collect q ->
            [ List.map Xmark_xml.Canonical.of_node (R.run_text_session session q).R.result ]
        | Xmark_core.Merge.Run _ -> Alcotest.fail "Q10 fans out side-queries only")
      (Xmark_core.Merge.ops 10)
  in
  let single = R.run_session session 10 in
  Alcotest.(check (pair int string))
    "gather = single store" (single.R.items, R.canonical single)
    (Xmark_core.Merge.gather 10 parts);
  Alcotest.(check int) "two categories" 2 single.R.items

let test_csv_exports () =
  let t1 = Xmark_core.Experiments.table1 ~factor:0.001 () in
  let csv = Xmark_core.Experiments.table1_to_csv t1 in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + six systems" 7 (List.length lines);
  Alcotest.(check string) "header" "system,bytes,load_ms,nodes" (List.hd lines);
  let f3 = Xmark_core.Experiments.fig3 ~factors:[ 0.001 ] () in
  let csv3 = Xmark_core.Experiments.fig3_to_csv f3 in
  Alcotest.(check int) "fig3 rows" 2 (List.length (String.split_on_char '\n' (String.trim csv3)))

let () =
  Alcotest.run "extensions"
    [
      ( "pathcheck",
        [
          Alcotest.test_case "benchmark queries are clean" `Quick test_pathcheck_clean_queries;
          Alcotest.test_case "typo detected" `Quick test_pathcheck_typo;
          Alcotest.test_case "did-you-mean suggestion" `Quick test_pathcheck_suggestion;
          Alcotest.test_case "nested expressions" `Quick test_pathcheck_nested;
          Alcotest.test_case "deduplication" `Quick test_pathcheck_dedup;
          Alcotest.test_case "attributes ignored" `Quick test_pathcheck_attributes_ignored;
          Alcotest.test_case "requires metadata" `Quick test_pathcheck_needs_metadata;
        ] );
      ( "fulltext",
        [
          Alcotest.test_case "index = scan = manual" `Quick test_ft_index_matches_scan;
          Alcotest.test_case "case-insensitive" `Quick test_ft_case_insensitive;
          Alcotest.test_case "document order" `Quick test_ft_document_order;
          Alcotest.test_case "subset of contains" `Quick test_ft_is_subset_of_contains;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 rows" `Quick test_table1_rows;
          Alcotest.test_case "fig3 linearity" `Quick test_fig3_linearity;
          Alcotest.test_case "table3 agreement" `Quick test_table3_agreement;
          Alcotest.test_case "fig4 coverage" `Quick test_fig4_covers_all_queries;
          Alcotest.test_case "loglog slope" `Quick test_loglog_slope;
          Alcotest.test_case "fulltext ablation" `Quick test_fulltext_rows;
          Alcotest.test_case "verification agrees" `Quick test_verification_agrees;
          Alcotest.test_case "verification report" `Quick test_verification_report_renders;
          Alcotest.test_case "verification divergence" `Quick test_diverge;
          Alcotest.test_case "merge Q10, repeated category" `Quick
            test_merge_q10_repeated_category;
          Alcotest.test_case "csv exports" `Quick test_csv_exports;
        ] );
    ]
