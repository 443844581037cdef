module Gen = Xmark_xmlgen.Generator
module Profile = Xmark_xmlgen.Profile
module Dictionary = Xmark_xmlgen.Dictionary
module Dtd = Xmark_xmlgen.Dtd
module Sink = Xmark_xmlgen.Sink
module Dom = Xmark_xml.Dom
module Sax = Xmark_xml.Sax

let factor = 0.003

let dom = lazy (Gen.to_dom ~factor ())

let counts = Profile.counts factor

(* --- profile ------------------------------------------------------------ *)

let test_counts_consistency () =
  (* "the number of items organized by continents equals the sum of open and
     closed auctions" (Section 4.5) *)
  Alcotest.(check int) "items = open + closed" counts.Profile.items
    (counts.Profile.open_auctions + counts.Profile.closed_auctions);
  let regional = List.fold_left (fun a (_, k) -> a + k) 0 counts.Profile.items_per_region in
  Alcotest.(check int) "regions partition items" counts.Profile.items regional

let test_counts_scale_linearly () =
  let c1 = Profile.counts 0.01 and c10 = Profile.counts 0.1 in
  let ratio = float_of_int c10.Profile.persons /. float_of_int c1.Profile.persons in
  Alcotest.(check bool) "persons scale 10x" true (Float.abs (ratio -. 10.0) < 0.2)

let test_counts_minimums () =
  let c = Profile.counts 0.00001 in
  Alcotest.(check bool) "all sets non-empty" true
    (c.Profile.categories >= 1 && c.Profile.persons >= 1 && c.Profile.open_auctions >= 1
   && c.Profile.closed_auctions >= 1)

let test_counts_factor_one () =
  let c = Profile.counts 1.0 in
  Alcotest.(check int) "persons" 25_500 c.Profile.persons;
  Alcotest.(check int) "open auctions" 12_000 c.Profile.open_auctions;
  Alcotest.(check int) "closed auctions" 9_750 c.Profile.closed_auctions;
  Alcotest.(check int) "items" 21_750 c.Profile.items;
  Alcotest.(check int) "categories" 1_000 c.Profile.categories

let test_region_of_item () =
  for i = 0 to counts.Profile.items - 1 do
    let r = Profile.region_of_item counts i in
    let first, count = Profile.region_item_range counts r in
    Alcotest.(check bool) "index within region range" true (i >= first && i < first + count)
  done

let test_invalid_factor () =
  match Profile.counts 0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "factor 0 should be rejected"

(* --- dictionary ---------------------------------------------------------- *)

let dict = lazy (Dictionary.create ())

let test_vocabulary_size () =
  Alcotest.(check int) "17000 words" 17_000 (Dictionary.vocabulary_size (Lazy.force dict))

let test_vocabulary_distinct () =
  let d = Lazy.force dict in
  let seen = Hashtbl.create 20000 in
  for r = 0 to Dictionary.vocabulary_size d - 1 do
    let w = Dictionary.word d r in
    Alcotest.(check bool) (Printf.sprintf "duplicate word %s" w) false (Hashtbl.mem seen w);
    Hashtbl.add seen w ()
  done

let test_gold_pinned () =
  let d = Lazy.force dict in
  Alcotest.(check string) "gold at its rank" "gold" (Dictionary.word d (Dictionary.gold_rank d))

let test_sentence_word_count () =
  let d = Lazy.force dict in
  let g = Xmark_prng.Prng.create () in
  let s = Dictionary.sample_sentence d g 7 in
  Alcotest.(check int) "7 words" 7 (List.length (String.split_on_char ' ' s))

let test_zipf_head_is_frequent () =
  let d = Lazy.force dict in
  let g = Xmark_prng.Prng.create () in
  let head = Hashtbl.create 16 in
  for r = 0 to 9 do
    Hashtbl.add head (Dictionary.word d r) ()
  done;
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Hashtbl.mem head (Dictionary.sample_word d g) then incr hits
  done;
  (* top-10 of a Zipf(1) over 17k ranks carry ~28% of the mass *)
  Alcotest.(check bool) "top-10 words frequent" true (!hits > n / 5 && !hits < n / 2)

(* --- generated document --------------------------------------------------- *)

let test_deterministic () =
  let a = Gen.to_string ~factor:0.001 () and b = Gen.to_string ~factor:0.001 () in
  Alcotest.(check bool) "identical output" true (String.equal a b)

let test_seed_sensitivity () =
  let a = Gen.to_string ~seed:1L ~factor:0.001 () in
  let b = Gen.to_string ~seed:2L ~factor:0.001 () in
  Alcotest.(check bool) "different seeds differ" false (String.equal a b)

let test_parses () =
  let d = Lazy.force dom in
  Alcotest.(check string) "root" "site" (Dom.name d)

let test_dom_equals_parsed_text () =
  let direct = Gen.to_dom ~factor:0.001 () in
  let parsed = Sax.parse_string (Gen.to_string ~factor:0.001 ()) in
  (* structural, not canonical: the canonical form cannot see adjacent
     text siblings, which [text()] steps do *)
  Alcotest.(check bool) "DOM sink = parse of text sink" true (Dom.equal direct parsed)

let test_measure_matches_buffer () =
  let bytes, elements = Gen.measure ~factor:0.001 () in
  let s = Gen.to_string ~factor:0.001 () in
  Alcotest.(check int) "bytes" (String.length s) bytes;
  let d = Sax.parse_string s in
  let actual_elements = Dom.fold (fun k n -> if Dom.is_element n then k + 1 else k) 0 d in
  Alcotest.(check int) "elements" actual_elements elements

let test_entity_counts () =
  let d = Lazy.force dom in
  let count tag = List.length (Dom.descendants_named d tag) in
  Alcotest.(check int) "persons" counts.Profile.persons (count "person");
  Alcotest.(check int) "open auctions" counts.Profile.open_auctions (count "open_auction");
  Alcotest.(check int) "closed auctions" counts.Profile.closed_auctions (count "closed_auction");
  Alcotest.(check int) "items" counts.Profile.items (count "item");
  Alcotest.(check int) "categories" counts.Profile.categories (count "category");
  Alcotest.(check int) "edges" counts.Profile.edges (count "edge")

let test_top_level_structure () =
  let d = Lazy.force dom in
  Alcotest.(check (list string)) "site children"
    [ "regions"; "categories"; "catgraph"; "people"; "open_auctions"; "closed_auctions" ]
    (List.map Dom.name (Dom.children d));
  let regions = List.find (fun n -> Dom.name n = "regions") (Dom.children d) in
  Alcotest.(check (list string)) "regions children"
    [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ]
    (List.map Dom.name (Dom.children regions))

let ids_of d =
  let h = Hashtbl.create 4096 in
  Dom.iter
    (fun n -> match Dom.attr n "id" with Some id -> Hashtbl.replace h id () | None -> ())
    d;
  h

let test_referential_integrity () =
  (* every typed reference resolves to an existing id (Figure 2) *)
  let d = Lazy.force dom in
  let ids = ids_of d in
  let check_ref n key =
    match Dom.attr n key with
    | None -> ()
    | Some v ->
        if not (Hashtbl.mem ids v) then
          Alcotest.failf "dangling %s reference %s on <%s>" key v (Dom.name n)
  in
  Dom.iter
    (fun n ->
      match Dom.name n with
      | "itemref" -> check_ref n "item"
      | "personref" | "seller" | "buyer" | "author" -> check_ref n "person"
      | "incategory" | "interest" -> check_ref n "category"
      | "watch" -> check_ref n "open_auction"
      | "edge" ->
          check_ref n "from";
          check_ref n "to"
      | _ -> ())
    d

let test_items_referenced_exactly_once () =
  (* the partitioning invariant of Section 4.5 *)
  let d = Lazy.force dom in
  let refs = Hashtbl.create 1024 in
  Dom.iter
    (fun n ->
      if Dom.name n = "itemref" then
        match Dom.attr n "item" with
        | Some v -> Hashtbl.replace refs v (1 + Option.value ~default:0 (Hashtbl.find_opt refs v))
        | None -> ())
    d;
  Dom.iter
    (fun n ->
      if Dom.name n = "item" then
        let id = Option.get (Dom.attr n "id") in
        Alcotest.(check int) (Printf.sprintf "item %s referenced once" id) 1
          (Option.value ~default:0 (Hashtbl.find_opt refs id)))
    d

let test_person_zero_exists () =
  let d = Lazy.force dom in
  let found = ref false in
  Dom.iter (fun n -> if Dom.attr n "id" = Some "person0" then found := true) d;
  Alcotest.(check bool) "person0 exists (Q1)" true !found

let test_person_structure () =
  let d = Lazy.force dom in
  Dom.iter
    (fun n ->
      if Dom.name n = "person" then begin
        let names = List.map Dom.name (Dom.children n) in
        Alcotest.(check bool) "has name" true (List.mem "name" names);
        Alcotest.(check bool) "has emailaddress" true (List.mem "emailaddress" names);
        (* DTD child order *)
        let dtd_order =
          [ "name"; "emailaddress"; "phone"; "address"; "homepage"; "creditcard"; "profile";
            "watches" ]
        in
        let positions = List.filter_map (fun t ->
          List.find_index (String.equal t) names) dtd_order in
        Alcotest.(check bool) "DTD order" true (List.sort compare positions = positions)
      end)
    d

let test_open_auction_structure () =
  let d = Lazy.force dom in
  Dom.iter
    (fun n ->
      if Dom.name n = "open_auction" then begin
        let names = List.map Dom.name (Dom.children n) in
        List.iter
          (fun required ->
            Alcotest.(check bool) (required ^ " present") true (List.mem required names))
          [ "initial"; "current"; "itemref"; "seller"; "annotation"; "quantity"; "type"; "interval" ];
        (* current = initial + sum of increases *)
        let leaf tag =
          Dom.string_value (List.find (fun c -> Dom.name c = tag) (Dom.children n))
        in
        let increases =
          List.filter (fun c -> Dom.name c = "bidder") (Dom.children n)
          |> List.map (fun b -> float_of_string (Dom.string_value (List.find (fun c -> Dom.name c = "increase") (Dom.children b))))
        in
        let expected = float_of_string (leaf "initial") +. List.fold_left ( +. ) 0.0 increases in
        Alcotest.(check bool) "current = initial + increases" true
          (Float.abs (expected -. float_of_string (leaf "current")) < 0.02)
      end)
    d

let test_homepage_fraction () =
  (* Q17: "The fraction of people without a homepage is rather high" *)
  let d = Lazy.force dom in
  let total = ref 0 and without = ref 0 in
  Dom.iter
    (fun n ->
      if Dom.name n = "person" then begin
        incr total;
        if not (List.exists (fun c -> Dom.name c = "homepage") (Dom.children n)) then incr without
      end)
    d;
  let f = float_of_int !without /. float_of_int !total in
  Alcotest.(check bool) "between 30% and 70%" true (f > 0.3 && f < 0.7)

let test_q15_path_exists () =
  (* the deep path Q15 traverses must be populated at moderate factors *)
  let d = Gen.to_dom ~factor:0.01 () in
  let step tag nodes =
    List.concat_map (fun n -> List.filter (fun c -> Dom.name c = tag) (Dom.children n)) nodes
  in
  let hits =
    [ d ] |> step "closed_auctions" |> step "closed_auction" |> step "annotation"
    |> step "description" |> step "parlist" |> step "listitem" |> step "parlist"
    |> step "listitem" |> step "text" |> step "emph" |> step "keyword"
  in
  Alcotest.(check bool) "Q15 path populated" true (hits <> [])

let test_gold_appears () =
  let d = Gen.to_dom ~factor:0.01 () in
  let found = ref false in
  Dom.iter
    (fun n ->
      if Dom.name n = "description" then
        let s = Dom.string_value n in
        let rec scan i =
          if i + 4 <= String.length s then
            if String.sub s i 4 = "gold" then found := true else scan (i + 1)
        in
        scan 0)
    d;
  Alcotest.(check bool) "some description contains 'gold' (Q14)" true !found

let test_calibration () =
  (* Figure 3: factor 1.0 ~ 100 MB, i.e. 0.01 ~ 1 MB (±30%) *)
  let bytes, _ = Gen.measure ~factor:0.01 () in
  Alcotest.(check bool)
    (Printf.sprintf "factor 0.01 gives ~1MB (got %d)" bytes)
    true
    (bytes > 700_000 && bytes < 1_300_000)

let test_linear_scaling () =
  let b1, _ = Gen.measure ~factor:0.005 () in
  let b2, _ = Gen.measure ~factor:0.02 () in
  let ratio = float_of_int b2 /. float_of_int b1 in
  Alcotest.(check bool)
    (Printf.sprintf "4x factor ~ 4x bytes (got %.2f)" ratio)
    true
    (ratio > 3.2 && ratio < 4.8)

let test_ascii_only () =
  let s = Gen.to_string ~factor:0.001 () in
  String.iter
    (fun c ->
      if Char.code c >= 128 then Alcotest.failf "non-ASCII byte %d" (Char.code c))
    s

(* --- split mode (Section 5) ---------------------------------------------- *)

let counts_entities files =
  List.fold_left
    (fun acc f ->
      let d = Sax.parse_file f in
      Dom.fold
        (fun k n ->
          match Dom.name n with
          | "item" | "person" | "open_auction" | "closed_auction" | "category" -> k + 1
          | _ -> k)
        acc d)
    0 files

let test_split_mode () =
  let dir = Filename.temp_file "xmark" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let info = Gen.to_split_files ~factor:0.001 ~dir ~per_file:20 () in
  Alcotest.(check bool) "several files" true (List.length info.Sink.files > 1);
  let total_entities = counts_entities info.Sink.files in
  Alcotest.(check int) "entity total preserved" info.Sink.entities total_entities;
  (* every file parses standalone and has a site root *)
  List.iter
    (fun f ->
      let d = Sax.parse_file f in
      Alcotest.(check string) (f ^ " root") "site" (Dom.name d))
    (info.Sink.files);
  List.iter Sys.remove info.Sink.files;
  Unix.rmdir dir

(* --- DTD ------------------------------------------------------------------ *)

let test_collection_roundtrip () =
  (* Section 5's normative statement: query semantics must not differ
     between the single document and the split collection *)
  let dir = Filename.temp_file "xmark-col" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let factor = 0.002 in
  let info = Gen.to_split_files ~factor ~dir ~per_file:25 () in
  let merged = Xmark_store.Collection.load_files info.Sink.files in
  let direct = Gen.to_dom ~factor () in
  Alcotest.(check bool) "merged collection = single document" true
    (Xmark_xml.Canonical.equal [ merged ] [ direct ]);
  List.iter Sys.remove info.Sink.files;
  Unix.rmdir dir

let test_collection_queries_agree () =
  let dir = Filename.temp_file "xmark-colq" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let factor = 0.002 in
  let info = Gen.to_split_files ~factor ~dir ~per_file:40 () in
  let merged = Xmark_store.Collection.load_files info.Sink.files in
  let module MM = Xmark_store.Backend_mainmem in
  let module E = Xmark_xquery.Eval.Make (MM) in
  let s1 = MM.create ~level:`Full merged in
  let s2 = MM.create ~level:`Full (Gen.to_dom ~factor ()) in
  List.iter
    (fun q ->
      let c1 = Xmark_xml.Canonical.of_nodes (E.result_to_dom s1 (E.eval_string s1 q)) in
      let c2 = Xmark_xml.Canonical.of_nodes (E.result_to_dom s2 (E.eval_string s2 q)) in
      Alcotest.(check string) q c2 c1)
    [
      "count(//item)"; "count(/site/people/person)";
      {|/site/people/person[@id = "person0"]/name/text()|};
      (Xmark_core.Queries.text 2);
    ];
  List.iter Sys.remove info.Sink.files;
  Unix.rmdir dir

let test_collection_merge_edges () =
  (* an empty collection is a caller bug: typed error, never a
     plausible-looking empty <site> *)
  (match Xmark_store.Collection.merge [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "merge [] must raise Invalid_argument");
  (match Xmark_store.Collection.merge [ Dom.element "people" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "merge of a non-site root must raise Invalid_argument");
  (* a one-root collection is already the document: identity, no copy *)
  let root = Gen.to_dom ~factor:0.001 () in
  let merged = Xmark_store.Collection.merge [ root ] in
  Alcotest.(check bool) "single-root merge is the identity" true
    (merged == root)

let test_dtd_well_formed_with_document () =
  let s = Dtd.text ^ Gen.to_string ~factor:0.001 () in
  let d = Sax.parse_string s in
  Alcotest.(check string) "parses with DOCTYPE" "site" (Dom.name d)

let contains_sub hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  at 0

let test_dtd_split_variant () =
  (* Section 5: parser-checked references become plain REQUIRED CDATA *)
  Alcotest.(check bool) "no IDREF in split DTD" false (contains_sub Dtd.text_split "IDREF");
  Alcotest.(check bool) "IDREF in normal DTD" true (contains_sub Dtd.text "IDREF")

let test_dtd_covers_document_tags () =
  let d = Lazy.force dom in
  Dom.iter
    (fun n ->
      if Dom.is_element n && not (List.mem (Dom.name n) Dtd.element_names) then
        Alcotest.failf "tag %s missing from DTD" (Dom.name n))
    d

(* --- DTD validation ------------------------------------------------------- *)

module Validator = Xmark_xmlgen.Validator

let test_generated_documents_valid () =
  List.iter
    (fun (seed, f) ->
      let d = Gen.to_dom ~seed ~factor:f () in
      match Validator.validate d with
      | [] -> ()
      | e :: _ ->
          Alcotest.failf "seed %Ld factor %g invalid: %s" seed f
            (Format.asprintf "%a" Validator.pp_error e))
    [ (Gen.default_seed, 0.001); (7L, 0.002); (42L, 0.003); (Gen.default_seed, 0.00001) ]

let test_validator_detects_breakage () =
  let base () = Gen.to_dom ~factor:0.001 () in
  let expect_invalid label mutate =
    let d = base () in
    mutate d;
    Alcotest.(check bool) label false (Validator.is_valid d)
  in
  expect_invalid "reversed person children" (fun d ->
      Dom.iter
        (fun n ->
          match n.Dom.desc with
          | Dom.Element e when Dom.name n = "person" -> e.Dom.children <- List.rev e.Dom.children
          | _ -> ())
        d);
  expect_invalid "person without id" (fun d ->
      match Dom.find_element d "person" with
      | Some { Dom.desc = Dom.Element e; _ } -> e.Dom.attrs <- []
      | _ -> ());
  expect_invalid "duplicate ids" (fun d ->
      Dom.iter
        (fun n ->
          match n.Dom.desc with
          | Dom.Element e when Dom.name n = "person" -> e.Dom.attrs <- [ ("id", "person0") ]
          | _ -> ())
        d);
  expect_invalid "dangling itemref" (fun d ->
      match Dom.find_element d "itemref" with
      | Some { Dom.desc = Dom.Element e; _ } -> e.Dom.attrs <- [ ("item", "item999999") ]
      | _ -> ());
  expect_invalid "unknown element" (fun d ->
      match Dom.find_element d "people" with
      | Some p -> Dom.append p (Dom.element "robot")
      | None -> ());
  expect_invalid "text inside people" (fun d ->
      match Dom.find_element d "people" with
      | Some p -> Dom.append p (Dom.text "stray words")
      | None -> ());
  expect_invalid "undeclared attribute" (fun d ->
      match Dom.find_element d "person" with
      | Some { Dom.desc = Dom.Element e; _ } -> e.Dom.attrs <- e.Dom.attrs @ [ ("color", "red") ]
      | _ -> ())

let test_split_mode_validation () =
  (* a split file fails ID/IDREF integrity but passes with the relaxed
     split DTD semantics - exactly Section 5's point *)
  let dir = Filename.temp_file "xmark-val" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let info = Gen.to_split_files ~factor:0.002 ~dir ~per_file:30 () in
  let some_file_fails_single =
    List.exists
      (fun f ->
        let d = Sax.parse_file f in
        not (Validator.is_valid ~mode:`Single d))
      info.Sink.files
  in
  Alcotest.(check bool) "split file violates strict ID/IDREF" true some_file_fails_single;
  List.iter
    (fun f ->
      let d = Sax.parse_file f in
      match Validator.validate ~mode:`Split d with
      | [] -> ()
      | e :: _ ->
          Alcotest.failf "%s invalid under split DTD: %s" f
            (Format.asprintf "%a" Validator.pp_error e))
    info.Sink.files;
  List.iter Sys.remove info.Sink.files;
  Unix.rmdir dir

let test_validator_accepts_updates () =
  let session = Xmark_store.Updates.of_string (Gen.to_string ~factor:0.002 ()) in
  ignore (Xmark_store.Updates.register_person session ~name:"V" ~email:"mailto:v@x.org");
  let store = Xmark_store.Updates.store session in
  let d = Xmark_store.Backend_mainmem.dom_root store in
  match Validator.validate d with
  | [] -> ()
  | e :: _ -> Alcotest.failf "updated doc invalid: %s" (Format.asprintf "%a" Validator.pp_error e)

(* --- XML Schema emission ----------------------------------------------------- *)

let test_xsd_parses () =
  let d = Sax.parse_string (Xmark_xmlgen.Xsd.text ()) in
  Alcotest.(check string) "root" "xs:schema" (Dom.name d)

let test_xsd_covers_all_elements () =
  let d = Sax.parse_string (Xmark_xmlgen.Xsd.text ()) in
  let declared =
    Dom.children d
    |> List.filter_map (fun n ->
           if Dom.name n = "xs:element" then Dom.attr n "name" else None)
  in
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " declared") true (List.mem tag declared))
    Dtd.element_names;
  Alcotest.(check int) "exactly one declaration per element"
    (List.length Dtd.element_names) (List.length declared)

let test_xsd_id_typing () =
  let d = Sax.parse_string (Xmark_xmlgen.Xsd.text ()) in
  let person =
    List.find
      (fun n -> Dom.name n = "xs:element" && Dom.attr n "name" = Some "person")
      (Dom.children d)
  in
  let found = ref false in
  Dom.iter
    (fun n ->
      if Dom.name n = "xs:attribute" && Dom.attr n "name" = Some "id" then begin
        Alcotest.(check (option string)) "xs:ID type" (Some "xs:ID") (Dom.attr n "type");
        Alcotest.(check (option string)) "required" (Some "required") (Dom.attr n "use");
        found := true
      end)
    person;
  Alcotest.(check bool) "person/@id declared" true !found

let test_xsd_mixed_content () =
  let d = Sax.parse_string (Xmark_xmlgen.Xsd.text ()) in
  let text_el =
    List.find
      (fun n -> Dom.name n = "xs:element" && Dom.attr n "name" = Some "text")
      (Dom.children d)
  in
  let mixed = ref false in
  Dom.iter
    (fun n -> if Dom.name n = "xs:complexType" && Dom.attr n "mixed" = Some "true" then mixed := true)
    text_el;
  Alcotest.(check bool) "text is mixed" true !mixed

(* --- DTD text vs structured content model consistency ------------------------ *)

module CM = Xmark_xmlgen.Content_model

(* a tiny reader for the <!ELEMENT ...> / <!ATTLIST ...> declarations in
   Dtd.text, used only to cross-check the two representations *)
let dtd_declarations () =
  let text = Dtd.text in
  let decls = ref [] in
  (* skip the DOCTYPE wrapper up to the internal subset *)
  let i = ref (String.index text '[' + 1) in
  let n = String.length text in
  while !i < n do
    (match String.index_from_opt text !i '<' with
    | Some start when start + 2 <= n && text.[start + 1] = '!' ->
        let stop = String.index_from text start '>' in
        decls := String.sub text start (stop - start + 1) :: !decls;
        i := stop + 1
    | Some start -> i := start + 1
    | None -> i := n)
  done;
  List.rev !decls

let test_dtd_matches_content_model () =
  let decls = dtd_declarations () in
  let element_decl name =
    List.find_opt
      (fun d ->
        let prefix = "<!ELEMENT " ^ name ^ " " in
        String.length d >= String.length prefix && String.sub d 0 (String.length prefix) = prefix)
      decls
  in
  List.iter
    (fun (name, model) ->
      match element_decl name with
      | None -> Alcotest.failf "DTD text lacks <!ELEMENT %s>" name
      | Some d -> (
          let has sub =
            let ls = String.length d and lx = String.length sub in
            let rec at i = i + lx <= ls && (String.sub d i lx = sub || at (i + 1)) in
            at 0
          in
          match model with
          | CM.Empty ->
              Alcotest.(check bool) (name ^ " EMPTY") true (has "EMPTY")
          | CM.Pcdata ->
              Alcotest.(check bool) (name ^ " #PCDATA") true (has "(#PCDATA)")
          | CM.Mixed _ ->
              Alcotest.(check bool) (name ^ " mixed") true (has "#PCDATA |")
          | CM.Children _ ->
              Alcotest.(check bool) (name ^ " element content") false (has "#PCDATA")))
    CM.elements;
  (* both directions: every declared element is modeled *)
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " modeled") true (List.mem_assoc tag CM.elements))
    Dtd.element_names

let test_attlist_matches_content_model () =
  let decls = dtd_declarations () in
  List.iter
    (fun (element, attr_decls) ->
      let att =
        List.find_opt
          (fun d ->
            let prefix = "<!ATTLIST " ^ element ^ " " in
            String.length d >= String.length prefix
            && String.sub d 0 (String.length prefix) = prefix)
          decls
      in
      match att with
      | None -> Alcotest.failf "DTD text lacks <!ATTLIST %s>" element
      | Some d ->
          List.iter
            (fun (a : CM.attr_decl) ->
              let has sub =
                let ls = String.length d and lx = String.length sub in
                let rec at i = i + lx <= ls && (String.sub d i lx = sub || at (i + 1)) in
                at 0
              in
              Alcotest.(check bool)
                (element ^ "/@" ^ a.CM.aname ^ " declared")
                true (has (a.CM.aname ^ " "));
              if a.CM.is_id then
                Alcotest.(check bool) (element ^ "/@" ^ a.CM.aname ^ " is ID") true (has " ID ");
              if a.CM.is_idref then
                Alcotest.(check bool)
                  (element ^ "/@" ^ a.CM.aname ^ " is IDREF")
                  true (has "IDREF"))
            attr_decls)
    CM.attributes

let () =
  Alcotest.run "xmlgen"
    [
      ( "profile",
        [
          Alcotest.test_case "consistency" `Quick test_counts_consistency;
          Alcotest.test_case "linear scaling" `Quick test_counts_scale_linearly;
          Alcotest.test_case "minimums" `Quick test_counts_minimums;
          Alcotest.test_case "factor 1.0 populations" `Quick test_counts_factor_one;
          Alcotest.test_case "region of item" `Quick test_region_of_item;
          Alcotest.test_case "invalid factor" `Quick test_invalid_factor;
        ] );
      ( "dictionary",
        [
          Alcotest.test_case "vocabulary size" `Quick test_vocabulary_size;
          Alcotest.test_case "vocabulary distinct" `Quick test_vocabulary_distinct;
          Alcotest.test_case "gold pinned" `Quick test_gold_pinned;
          Alcotest.test_case "sentence word count" `Quick test_sentence_word_count;
          Alcotest.test_case "zipf head frequent" `Quick test_zipf_head_is_frequent;
        ] );
      ( "document",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "parses" `Quick test_parses;
          Alcotest.test_case "dom = parsed text" `Quick test_dom_equals_parsed_text;
          Alcotest.test_case "measure matches buffer" `Quick test_measure_matches_buffer;
          Alcotest.test_case "entity counts" `Quick test_entity_counts;
          Alcotest.test_case "top-level structure" `Quick test_top_level_structure;
          Alcotest.test_case "referential integrity" `Quick test_referential_integrity;
          Alcotest.test_case "items referenced once" `Quick test_items_referenced_exactly_once;
          Alcotest.test_case "person0 exists" `Quick test_person_zero_exists;
          Alcotest.test_case "person structure" `Quick test_person_structure;
          Alcotest.test_case "open auction structure" `Quick test_open_auction_structure;
          Alcotest.test_case "homepage fraction" `Quick test_homepage_fraction;
          Alcotest.test_case "Q15 path exists" `Quick test_q15_path_exists;
          Alcotest.test_case "gold appears" `Quick test_gold_appears;
          Alcotest.test_case "calibration (Fig 3)" `Quick test_calibration;
          Alcotest.test_case "linear scaling (Fig 3)" `Quick test_linear_scaling;
          Alcotest.test_case "ascii only" `Quick test_ascii_only;
        ] );
      ( "split",
        [
          Alcotest.test_case "split mode" `Quick test_split_mode;
          Alcotest.test_case "collection roundtrip" `Quick test_collection_roundtrip;
          Alcotest.test_case "collection queries agree" `Quick test_collection_queries_agree;
          Alcotest.test_case "collection merge edge cases" `Quick test_collection_merge_edges;
        ] );
      ( "dtd",
        [
          Alcotest.test_case "well-formed with document" `Quick test_dtd_well_formed_with_document;
          Alcotest.test_case "split variant" `Quick test_dtd_split_variant;
          Alcotest.test_case "covers document tags" `Quick test_dtd_covers_document_tags;
        ] );
      ( "xsd",
        [
          Alcotest.test_case "parses" `Quick test_xsd_parses;
          Alcotest.test_case "covers all elements" `Quick test_xsd_covers_all_elements;
          Alcotest.test_case "id typing" `Quick test_xsd_id_typing;
          Alcotest.test_case "mixed content" `Quick test_xsd_mixed_content;
        ] );
      ( "validation",
        [
          Alcotest.test_case "generated documents valid" `Quick test_generated_documents_valid;
          Alcotest.test_case "detects breakage" `Quick test_validator_detects_breakage;
          Alcotest.test_case "split-mode semantics" `Quick test_split_mode_validation;
          Alcotest.test_case "updates stay valid" `Quick test_validator_accepts_updates;
          Alcotest.test_case "DTD text = content model" `Quick test_dtd_matches_content_model;
          Alcotest.test_case "ATTLIST = content model" `Quick test_attlist_matches_content_model;
        ] );
    ]
