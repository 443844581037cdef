(* End-to-end benchmark correctness: the twenty queries run on every
   system and must produce canonically identical results — the
   query-processor verification use the paper proposes in Section 1.
   Ground truths for the value-returning queries are computed
   independently by direct DOM traversal. *)

module Runner = Xmark_core.Runner
module Queries = Xmark_core.Queries
module Verification = Xmark_core.Verification
module Dom = Xmark_xml.Dom

let factor = 0.004

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor ())

let dom = lazy (Xmark_xml.Sax.parse_string (Lazy.force doc))

let stores =
  lazy
    (List.map
       (fun sys -> (sys, (Runner.load ~source:(`Text (Lazy.force doc)) sys).Runner.store))
       Runner.all_systems)

let store sys = List.assq sys (Lazy.force stores)

let canonical sys q = Runner.canonical (Runner.run (store sys) q)

let items sys q = (Runner.run (store sys) q).Runner.items

(* --- cross-system equivalence ------------------------------------------- *)

(* one run of the 7 systems x 20 queries, each answer compared with
   System D's; a case per query reads its report *)
let reports = lazy (Verification.compare_systems (Lazy.force doc))

let check_agree reports =
  List.iter
    (fun r -> if not r.Verification.agreed then Alcotest.failf "%a" Verification.pp_report r)
    reports

let test_equivalence q () =
  check_agree [ List.find (fun r -> r.Verification.query = q) (Lazy.force reports) ]

(* --- ground truths from direct DOM traversal ------------------------------ *)

let truth = Lazy.force dom

let descendants tag = Dom.descendants_named truth tag

let test_q1_name () =
  let person0 =
    List.find (fun n -> Dom.attr n "id" = Some "person0") (descendants "person")
  in
  let name = Dom.string_value (List.find (fun c -> Dom.name c = "name") (Dom.children person0)) in
  Alcotest.(check string) "Q1 returns person0's name" name (canonical Runner.D 1)

let test_q2_cardinality () =
  Alcotest.(check int) "one increase element per open auction"
    (List.length (descendants "open_auction"))
    (items Runner.D 2)

let test_q5_count () =
  let expected =
    descendants "closed_auction"
    |> List.filter (fun ca ->
           match List.find_opt (fun c -> Dom.name c = "price") (Dom.children ca) with
           | Some p -> float_of_string (Dom.string_value p) >= 40.0
           | None -> false)
    |> List.length
  in
  Alcotest.(check string) "Q5 count" (string_of_int expected) (canonical Runner.D 5)

let test_q6_count () =
  Alcotest.(check string) "Q6 counts all items"
    (string_of_int (List.length (descendants "item")))
    (canonical Runner.D 6)

let test_q7_count () =
  let expected =
    List.length (descendants "description")
    + List.length (descendants "annotation")
    + List.length (descendants "emailaddress")
  in
  Alcotest.(check string) "Q7 prose count" (string_of_int expected) (canonical Runner.D 7)

let test_q8_totals () =
  (* the per-person counts must sum to the number of closed auctions with a
     valid buyer *)
  let out = Runner.run (store Runner.D) 8 in
  Alcotest.(check int) "one element per person"
    (List.length (descendants "person"))
    out.Runner.items;
  let total =
    List.fold_left
      (fun acc n -> acc + int_of_string (Dom.string_value n))
      0 out.Runner.result
  in
  Alcotest.(check int) "totals = closed auctions"
    (List.length (descendants "closed_auction"))
    total

let test_q14_gold () =
  let out = Runner.run (store Runner.D) 14 in
  let expected =
    descendants "item"
    |> List.filter (fun it ->
           match List.find_opt (fun c -> Dom.name c = "description") (Dom.children it) with
           | None -> false
           | Some d ->
               let s = Dom.string_value d in
               let rec scan i =
                 i + 4 <= String.length s && (String.sub s i 4 = "gold" || scan (i + 1))
               in
               scan 0)
    |> List.length
  in
  Alcotest.(check int) "Q14 hit count" expected out.Runner.items

let test_q17_count () =
  let expected =
    descendants "person"
    |> List.filter (fun p ->
           not (List.exists (fun c -> Dom.name c = "homepage") (Dom.children p)))
    |> List.length
  in
  Alcotest.(check int) "Q17 persons without homepage" expected (items Runner.D 17)

let test_q19_sorted () =
  let out = Runner.run (store Runner.D) 19 in
  Alcotest.(check int) "all items listed" (List.length (descendants "item")) out.Runner.items;
  let locations = List.map Dom.string_value out.Runner.result in
  Alcotest.(check bool) "alphabetical" true (List.sort compare locations = locations)

let test_q20_partition () =
  (* the four groups partition the person set *)
  let out = Runner.run (store Runner.D) 20 in
  match out.Runner.result with
  | [ result ] ->
      let totals =
        List.map (fun c -> int_of_string (Dom.string_value c)) (Dom.children result)
      in
      Alcotest.(check int) "groups partition persons"
        (List.length (descendants "person"))
        (List.fold_left ( + ) 0 totals)
  | _ -> Alcotest.fail "Q20 returns one result element"

let test_q18_conversion () =
  let out = Runner.run (store Runner.D) 18 in
  let reserves =
    descendants "open_auction"
    |> List.filter_map (fun oa ->
           List.find_opt (fun c -> Dom.name c = "reserve") (Dom.children oa))
  in
  Alcotest.(check int) "one number per reserve" (List.length reserves) out.Runner.items;
  List.iter2
    (fun reserve result ->
      let expected = 2.20371 *. float_of_string (Dom.string_value reserve) in
      let got = float_of_string (Dom.string_value result) in
      Alcotest.(check bool) "converted" true (Float.abs (expected -. got) < 1e-9))
    reserves out.Runner.result

let test_q16_ids_valid () =
  let out = Runner.run (store Runner.D) 16 in
  List.iter
    (fun n ->
      match Dom.attr n "id" with
      | Some id ->
          Alcotest.(check bool) "seller id resolves" true
            (List.exists (fun p -> Dom.attr p "id" = Some id) (descendants "person"))
      | None -> Alcotest.fail "person element without id")
    out.Runner.result

(* --- compile/execute split ------------------------------------------------- *)

let test_outcome_shape () =
  let o = Runner.run (store Runner.A) 1 in
  Alcotest.(check bool) "compile time measured" true (o.Runner.compile.Xmark_core.Timing.wall_ms >= 0.0);
  Alcotest.(check bool) "metadata touched on A" true (o.Runner.metadata_accesses > 0);
  let ob = Runner.run (store Runner.B) 1 in
  Alcotest.(check bool) "B touches more metadata than A" true
    (ob.Runner.metadata_accesses > o.Runner.metadata_accesses)

let test_system_g_reparses () =
  (* G has no database; its execution includes the parse and still agrees *)
  Alcotest.(check string) "G = D on Q1" (canonical Runner.D 1) (canonical Runner.G 1)

let test_run_text_rejected_on_c () =
  (match Runner.run_text (store Runner.C) "1 + 1" with
  | exception Runner.Unsupported _ -> ()
  | _ -> Alcotest.fail "System C should reject ad-hoc query texts");
  match Runner.try_run_text (store Runner.C) "1 + 1" with
  | Error (`Unsupported msg) ->
      Alcotest.(check bool) "message names the limitation" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "try_run_text should report Unsupported on System C"

let test_run_text_adhoc () =
  let o = Runner.run_text (store Runner.D) "count(//person)" in
  Alcotest.(check string) "ad-hoc count"
    (string_of_int (List.length (descendants "person")))
    (Xmark_xml.Canonical.of_nodes o.Runner.result)

let test_second_seed_agreement () =
  (* determinism aside, agreement must hold for any generated instance *)
  let doc2 = Xmark_xmlgen.Generator.to_string ~seed:99L ~factor:0.002 () in
  check_agree
    (Verification.compare_systems ~systems:[ Runner.A; Runner.C; Runner.D; Runner.G ]
       ~queries:[ 2; 8; 15; 20 ] doc2)

let test_bulkload_dom_equivalent () =
  (* loading from a parsed tree must behave exactly like loading from text *)
  let d = Xmark_xml.Sax.parse_string (Lazy.force doc) in
  List.iter
    (fun sys ->
      let via_dom = (Runner.load ~source:(`Dom d) sys).Runner.store in
      Alcotest.(check string)
        (Runner.system_name sys ^ " dom = text")
        (canonical sys 2)
        (Runner.canonical (Runner.run via_dom 2)))
    [ Runner.A; Runner.B; Runner.C; Runner.D; Runner.G ]

let test_table2_rows_structure () =
  let rows = Xmark_core.Experiments.table2 ~factor:0.001 ~runs:1 () in
  Alcotest.(check int) "2 queries x 3 systems" 6 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "compile measured" true
        (r.Xmark_core.Experiments.t2_compile_ms >= 0.0);
      Alcotest.(check bool) "metadata counted" true (r.Xmark_core.Experiments.t2_metadata > 0))
    rows

let () =
  let equivalence =
    List.init 20 (fun i ->
        let q = i + 1 in
        Alcotest.test_case (Printf.sprintf "Q%d all systems agree" q) `Slow (test_equivalence q))
  in
  Alcotest.run "queries"
    [
      ("equivalence", equivalence);
      ( "ground truth",
        [
          Alcotest.test_case "Q1 name" `Quick test_q1_name;
          Alcotest.test_case "Q2 cardinality" `Quick test_q2_cardinality;
          Alcotest.test_case "Q5 count" `Quick test_q5_count;
          Alcotest.test_case "Q6 count" `Quick test_q6_count;
          Alcotest.test_case "Q7 count" `Quick test_q7_count;
          Alcotest.test_case "Q8 totals" `Quick test_q8_totals;
          Alcotest.test_case "Q14 gold" `Quick test_q14_gold;
          Alcotest.test_case "Q16 ids valid" `Quick test_q16_ids_valid;
          Alcotest.test_case "Q17 count" `Quick test_q17_count;
          Alcotest.test_case "Q18 conversion" `Quick test_q18_conversion;
          Alcotest.test_case "Q19 sorted" `Quick test_q19_sorted;
          Alcotest.test_case "Q20 partition" `Quick test_q20_partition;
        ] );
      ( "runner",
        [
          Alcotest.test_case "outcome shape" `Quick test_outcome_shape;
          Alcotest.test_case "System G reparses" `Quick test_system_g_reparses;
          Alcotest.test_case "System C rejects ad-hoc" `Quick test_run_text_rejected_on_c;
          Alcotest.test_case "ad-hoc query" `Quick test_run_text_adhoc;
          Alcotest.test_case "second seed agreement" `Quick test_second_seed_agreement;
          Alcotest.test_case "bulkload from DOM" `Quick test_bulkload_dom_equivalent;
          Alcotest.test_case "table2 rows" `Quick test_table2_rows_structure;
        ] );
    ]
