module Dom = Xmark_xml.Dom
module Sax = Xmark_xml.Sax
module Symbol = Xmark_xml.Symbol
module Serialize = Xmark_xml.Serialize
module Canonical = Xmark_xml.Canonical
module Prng = Xmark_prng.Prng
module Check = Xmark_check

let parse = Sax.parse_string

let sym = Symbol.intern

(* --- SAX --------------------------------------------------------------- *)

let test_basic_events () =
  let p = Sax.of_string "<a x=\"1\"><b>hi</b></a>" in
  let expect e = Alcotest.(check bool) "event" true (Sax.next p = e) in
  expect (Sax.Start_element (sym "a", [ ("x", "1") ]));
  expect (Sax.Start_element (sym "b", []));
  expect (Sax.Chars "hi");
  expect (Sax.End_element (sym "b"));
  expect (Sax.End_element (sym "a"));
  expect Sax.Eof;
  expect Sax.Eof

let test_self_closing () =
  let p = Sax.of_string "<a><b/></a>" in
  ignore (Sax.next p);
  Alcotest.(check bool) "start b" true (Sax.next p = Sax.Start_element (sym "b", []));
  Alcotest.(check bool) "end b" true (Sax.next p = Sax.End_element (sym "b"));
  Alcotest.(check bool) "end a" true (Sax.next p = Sax.End_element (sym "a"))

let test_entities () =
  let d = parse "<a>x &amp; y &lt; z &gt; w &quot;q&quot; &apos;a&apos;</a>" in
  Alcotest.(check string) "decoded" "x & y < z > w \"q\" 'a'" (Dom.string_value d)

let test_char_refs () =
  let d = parse "<a>&#65;&#x42;</a>" in
  Alcotest.(check string) "char refs" "AB" (Dom.string_value d)

let test_cdata () =
  let d = parse "<a><![CDATA[<not> & markup]]></a>" in
  Alcotest.(check string) "cdata" "<not> & markup" (Dom.string_value d)

let test_comments_skipped () =
  let d = parse "<a><!-- nope --><b/><!-- -- also --></a>" in
  Alcotest.(check int) "one child" 1 (List.length (Dom.children d))

let test_doctype_skipped () =
  let d = parse "<!DOCTYPE site [ <!ELEMENT a (b)> ]><a><b/></a>" in
  Alcotest.(check string) "root" "a" (Dom.name d)

let test_xml_decl_skipped () =
  let d = parse "<?xml version=\"1.0\"?><a/>" in
  Alcotest.(check string) "root" "a" (Dom.name d)

let test_attr_quotes () =
  let d = parse "<a x='single' y=\"double\"/>" in
  Alcotest.(check (option string)) "single" (Some "single") (Dom.attr d "x");
  Alcotest.(check (option string)) "double" (Some "double") (Dom.attr d "y")

let expect_error src =
  match parse src with
  | exception Sax.Parse_error _ -> ()
  | _ -> Alcotest.failf "expected parse error for %S" src

let test_errors () =
  expect_error "<a><b></a>";
  expect_error "<a>";
  expect_error "<a></a><b></b>";
  expect_error "<a x=1/>";
  expect_error "<a>&unknown;</a>";
  expect_error "text only";
  expect_error "<a x=\"1\" x=\"2\"/>";
  expect_error "<a><b></b>"

let test_whitespace_dropped () =
  let d = parse "<a>\n  <b/>\n  <c/>\n</a>" in
  Alcotest.(check int) "ws dropped" 2 (List.length (Dom.children d))

let test_whitespace_kept () =
  let d = Sax.parse_string ~keep_ws:true "<a> <b/> </a>" in
  Alcotest.(check int) "ws kept" 3 (List.length (Dom.children d))

let test_mixed_content () =
  let d = parse "<t>one <b>two</b> three</t>" in
  Alcotest.(check int) "three children" 3 (List.length (Dom.children d));
  Alcotest.(check string) "string value" "one two three" (Dom.string_value d)

let test_scan_counts () =
  let p = Sax.of_string "<a><b>x</b><c/></a>" in
  (* events: a, b, "x", /b, c, /c, /a = 7 *)
  Alcotest.(check int) "event count" 7 (Sax.scan p)

(* --- DOM --------------------------------------------------------------- *)

let sample () = parse "<a i=\"1\"><b>x</b><c><b>y</b></c></a>"

let test_dom_navigation () =
  let d = sample () in
  Alcotest.(check string) "root name" "a" (Dom.name d);
  Alcotest.(check int) "children" 2 (List.length (Dom.children d));
  Alcotest.(check int) "size" 6 (Dom.size d);
  let bs = Dom.descendants_named d "b" in
  Alcotest.(check int) "two bs" 2 (List.length bs);
  Alcotest.(check bool) "doc order" true
    (match bs with [ x; y ] -> x.Dom.order < y.Dom.order | _ -> false)

let test_dom_orders_unique () =
  let d = sample () in
  let orders = Dom.fold (fun acc n -> n.Dom.order :: acc) [] d in
  Alcotest.(check int) "all distinct" (List.length orders)
    (List.length (List.sort_uniq compare orders))

let test_order_of_unindexed () =
  (* a hand-built, never-indexed tree is keyed from its root on the first
     order access instead of comparing the -1 placeholder *)
  let x = Dom.text "x" in
  let n = Dom.element ~children:[ Dom.element ~children:[ x ] "b" ] "a" in
  Alcotest.(check int) "first ask, at a leaf" (2 * Dom.order_gap) (Dom.order_of x);
  Alcotest.(check int) "root keyed with it" 0 n.Dom.order;
  Alcotest.(check int) "root order" 0 (Dom.order_of n)

let test_dom_parents () =
  let d = sample () in
  Dom.iter
    (fun n ->
      if n != d then
        Alcotest.(check bool) "has parent" true (n.Dom.parent <> None))
    d

let test_deep_copy () =
  let d = sample () in
  let d' = Dom.deep_copy d in
  Alcotest.(check bool) "equal" true (Dom.equal d d');
  Alcotest.(check bool) "distinct" true (d != d')

let test_find_element () =
  let d = sample () in
  Alcotest.(check bool) "find c" true (Dom.find_element d "c" <> None);
  Alcotest.(check bool) "missing" true (Dom.find_element d "zz" = None)

let test_append () =
  let d = Dom.element "root" in
  Dom.append d (Dom.text "hello");
  Alcotest.(check string) "appended" "hello" (Dom.string_value d);
  match Dom.append (Dom.text "x") (Dom.text "y") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "append to text should fail"

(* --- serialization ------------------------------------------------------ *)

let test_escape () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;d" (Serialize.escape_text "a&b<c>d");
  Alcotest.(check string) "attr" "a&amp;b&lt;c&quot;d" (Serialize.escape_attr "a&b<c\"d")

let test_roundtrip () =
  let src = "<a i=\"1\"><b>x &amp; y</b><c><b>y</b></c></a>" in
  let d = parse src in
  let out = Serialize.to_string d in
  Alcotest.(check bool) "roundtrip equal" true (Dom.equal d (parse out))

let test_empty_element_form () =
  let d = parse "<a><b></b></a>" in
  Alcotest.(check string) "self-closing" "<a><b/></a>" (Serialize.to_string d)

let test_fragment () =
  let nodes = [ Dom.element "x"; Dom.text "t" ] in
  Alcotest.(check string) "fragment" "<x/>\nt" (Serialize.fragment_to_string nodes)

(* --- canonical ----------------------------------------------------------- *)

let test_canonical_attr_order () =
  let a = parse "<a y=\"2\" x=\"1\"/>" and b = parse "<a x=\"1\" y=\"2\"/>" in
  Alcotest.(check bool) "attr order irrelevant" true (Canonical.equal [ a ] [ b ])

let test_canonical_ws () =
  let a = parse "<a><b>x   y</b></a>" and b = parse "<a> <b>x y</b> </a>" in
  Alcotest.(check bool) "whitespace normalized" true (Canonical.equal [ a ] [ b ])

let test_canonical_distinguishes () =
  let a = parse "<a><b>x</b></a>" and b = parse "<a><b>y</b></a>" in
  Alcotest.(check bool) "different text differs" false (Canonical.equal [ a ] [ b ])

let test_canonical_empty_forms () =
  let a = parse "<a><b/></a>" and b = parse "<a><b></b></a>" in
  Alcotest.(check bool) "empty forms equal" true (Canonical.equal [ a ] [ b ])

(* --- property: random trees round-trip ----------------------------------- *)

let text_str g =
  let piece _ = Prng.pick g [| "x"; "&"; "<"; " "; "z\"" |] in
  String.concat "" (List.init (Prng.int_in g 1 4) piece)

(* depth 0 is text; otherwise text two times in five, else an element *)
let rec gen_tree g depth =
  if depth = 0 then Dom.text (text_str g)
  else if Prng.int g 5 < 2 then Dom.text ("t" ^ text_str g)
  else
    let name = Prng.pick g [| "a"; "b"; "c"; "item"; "name" |] in
    let attrs = Prng.pick g [| []; [ ("k", "v") ]; [ ("k", "a&b\"c") ] |] in
    let children = List.init (Prng.int_in g 0 3) (fun _ -> gen_tree g (depth - 1)) in
    Dom.element ~attrs ~children name

let gen_root g =
  let name = Prng.pick g [| "root"; "site" |] in
  Dom.element ~children:(List.init (Prng.int_in g 0 4) (fun _ -> gen_tree g 3)) name

let tree_property name prop =
  { Check.Property.name; gen = gen_root; shrink = Check.Shrink.dom;
    prop = (fun root -> if prop root then Ok "pass" else Error "violated");
    to_bytes = Serialize.to_string; ext = "xml" }

let prop_serialize_parse_roundtrip =
  tree_property "serialize ∘ parse = id (modulo ws text nodes)" (fun root ->
      let out = Serialize.to_string root in
      let back = Sax.parse_string ~keep_ws:true out in
      Canonical.equal [ root ] [ back ])

let prop_canonical_stable =
  tree_property "canonicalization is idempotent" (fun root ->
      let c1 = Canonical.of_node root in
      let back = Sax.parse_string ~keep_ws:true c1 in
      String.equal c1 (Canonical.of_node back))

(* --- property: canonical text written in one pass ------------------------ *)

(* The former canonical writer, kept as the oracle: each run of adjacent
   text is joined with String.concat, whitespace-normalized to a string,
   escaped to another, and every attribute list is sorted. *)
module Canonical_oracle = struct
  let normalize_ws s =
    let buf = Buffer.create (String.length s) in
    let pending = ref false in
    String.iter
      (fun c ->
        if c = ' ' || c = '\t' || c = '\n' || c = '\r' then pending := true
        else begin
          if !pending && Buffer.length buf > 0 then Buffer.add_char buf ' ';
          pending := false;
          Buffer.add_char buf c
        end)
      s;
    Buffer.contents buf

  let rec emit buf (n : Dom.node) =
    match n.Dom.desc with
    | Dom.Text s -> Buffer.add_string buf (Serialize.escape_text (normalize_ws s))
    | Dom.Element e ->
        Buffer.add_string buf ("<" ^ Symbol.to_string e.Dom.name);
        List.iter
          (fun (k, v) -> Buffer.add_string buf (" " ^ k ^ "=\"" ^ Serialize.escape_attr v ^ "\""))
          (List.sort compare e.Dom.attrs);
        Buffer.add_char buf '>';
        let rec walk = function
          | [] -> ()
          | ({ Dom.desc = Dom.Text _; _ } as c : Dom.node) :: rest ->
              let texts, rest' = split_texts [] (c :: rest) in
              let joined = normalize_ws (String.concat "" texts) in
              if joined <> "" then Buffer.add_string buf (Serialize.escape_text joined);
              walk rest'
          | c :: rest ->
              emit buf c;
              walk rest
        and split_texts acc = function
          | ({ Dom.desc = Dom.Text s; _ } : Dom.node) :: rest -> split_texts (s :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        walk e.Dom.children;
        Buffer.add_string buf ("</" ^ Symbol.to_string e.Dom.name ^ ">")

  let of_node n =
    let buf = Buffer.create 256 in
    emit buf n;
    Buffer.contents buf

  let of_nodes nodes = String.concat "\n" (List.map of_node nodes)
end

(* Hostile text: blanks of every kind, at both ends and in runs,
   whitespace-only and empty nodes, and every character escaping touches. *)
let hostile_text g =
  let pool = "  \t\n\r&<>\"'ab" in
  String.init (Prng.int g 8) (fun _ -> pool.[Prng.int g (String.length pool)])

(* Children are drawn without coalescing, so adjacent text nodes meet with
   whitespace on either side of the boundary; attribute keys come in
   drawn order, so most lists are unsorted. *)
let rec hostile_tree g depth =
  let keys = [| "b"; "a"; "id"; "c" |] in
  Prng.shuffle g keys;
  let attrs = List.init (Prng.int g 4) (fun i -> (keys.(i), hostile_text g)) in
  let rec kids k acc =
    if k = 0 then List.rev acc
    else
      let child =
        if depth = 0 || Prng.chance g 0.6 then Dom.text (hostile_text g)
        else hostile_tree g (depth - 1)
      in
      kids (k - 1) (child :: acc)
  in
  Dom.element ~attrs ~children:(kids (Prng.int g 6) []) (Prng.pick g [| "a"; "item"; "b" |])

let canonical_one_pass =
  {
    Check.Property.name = "canonical-one-pass";
    gen = (fun g -> hostile_tree g 3);
    shrink = Check.Shrink.dom;
    prop =
      (fun root ->
        let top = Dom.children root in
        if not (String.equal (Canonical.of_node root) (Canonical_oracle.of_node root)) then
          Error "of_node differs from the oracle"
        else if not (String.equal (Canonical.of_nodes top) (Canonical_oracle.of_nodes top)) then
          Error "of_nodes differs from the oracle"
        else Ok (if List.length top > 1 then "sequence" else "single"));
    to_bytes = Serialize.to_string;
    ext = "xml";
  }

(* --- fuzzing: the parser must terminate with a value or Parse_error ---------- *)

let tokens =
  [| "<"; ">"; "/"; "a"; "b"; "="; "\""; "'"; "&"; "amp;"; " "; "<!"; "<?"; "]]>"; "<![CDATA[";
     "-->"; "<!--"; "x"; "1"; ";"; "#" |]

(* Any outcome but a value or Parse_error is a violation: the runner
   turns a leaked exception into a counterexample. *)
let bytes_property name prop =
  { Check.Property.name;
    gen = (fun g -> String.concat "" (List.init (Prng.int_in g 0 40) (fun _ -> Prng.pick g tokens)));
    shrink = Check.Shrink.string; prop; to_bytes = Fun.id; ext = "txt" }

let prop_parser_total =
  bytes_property "parser terminates with value or Parse_error on any input" (fun s ->
      match Sax.parse_string s with
      | _ -> Ok "accepted"
      | exception Sax.Parse_error _ -> Ok "rejected")

let prop_scan_total =
  bytes_property "scan terminates on any input" (fun s ->
      match Sax.scan (Sax.of_string s) with
      | n -> if n >= 0 then Ok "accepted" else Error "negative event count"
      | exception Sax.Parse_error _ -> Ok "rejected")

(* --- hostile input: typed rejection with pinned positions -------------------- *)

(* These exact line/col values are part of the error contract: tools
   (and people) locate defects in benchmark documents with them, so a
   lexer change that shifts positions must show up here. *)
let expect_error_at src want_line want_col =
  match parse src with
  | exception Sax.Parse_error { line; col; _ } ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "error position for %S" src)
        (want_line, want_col) (line, col)
  | _ -> Alcotest.failf "expected parse error for %S" src

let test_error_positions () =
  expect_error_at "<a><b></c></a>" 1 11;
  expect_error_at "<a>\n  <b>oops</c>\n</a>" 2 14;
  expect_error_at "<a>&unknown;</a>" 1 13;
  expect_error_at "" 1 1;
  expect_error_at "<a>\n<b>\n" 3 1;
  expect_error_at "<a x=\"1\" x=\"2\"/>" 1 15

(* Nesting at the depth cap parses; one level beyond raises the typed
   error instead of exhausting the stack (scan and parse alike). *)
let test_depth_cap () =
  let opens n = String.concat "" (List.init n (fun _ -> "<d>")) in
  let closes n = String.concat "" (List.init n (fun _ -> "</d>")) in
  let at_cap = opens Sax.max_depth ^ closes Sax.max_depth in
  Alcotest.(check int) "scan at the cap"
    (2 * Sax.max_depth)
    (Sax.scan (Sax.of_string at_cap));
  ignore (Sax.parse_string at_cap);
  let beyond = opens (Sax.max_depth + 1) in
  (match Sax.scan (Sax.of_string beyond) with
  | _ -> Alcotest.fail "scan accepted nesting beyond the cap"
  | exception Sax.Parse_error _ -> ());
  match Sax.parse_string beyond with
  | _ -> Alcotest.fail "parse accepted nesting beyond the cap"
  | exception Sax.Parse_error _ -> ()

(* A zero-length file is a typed parse error ("no root element"), never
   End_of_file or an assertion. *)
let test_empty_file () =
  let path = Filename.temp_file "xmark_test" ".xml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check int) "scan of an empty file" 0
        (Sax.scan (Sax.of_file path));
      match Sax.parse_file path with
      | _ -> Alcotest.fail "parse_file accepted an empty file"
      | exception Sax.Parse_error { line = 1; col = 1; _ } -> ()
      | exception Sax.Parse_error { line; col; _ } ->
          Alcotest.failf "empty file rejected at %d:%d, expected 1:1" line col)

let prop_truncation_fails_cleanly =
  { Check.Property.name = "truncated well-formed documents raise Parse_error";
    gen =
      (fun g ->
        let root = gen_root g in
        (root, Prng.float g 1.0));
    shrink = (fun _ -> Seq.empty);
    prop =
      (fun (root, frac) ->
        let full = Serialize.to_string root in
        let cut = int_of_float (frac *. float_of_int (String.length full)) in
        let truncated = String.sub full 0 (min cut (String.length full - 1)) in
        match Sax.parse_string truncated with
        | _ -> Ok "accepted"  (* a prefix can coincidentally be well-formed only if whole *)
        | exception Sax.Parse_error _ -> Ok "rejected");
    to_bytes = (fun (root, frac) -> Printf.sprintf "%s cut at %g" (Serialize.to_string root) frac);
    ext = "txt" }

let case ~count ~seed p =
  Alcotest.test_case p.Check.Property.name `Slow (Check.Property.check ~count ~seed p)

let () =
  Alcotest.run "xml"
    [
      ( "sax",
        [
          Alcotest.test_case "basic events" `Quick test_basic_events;
          Alcotest.test_case "self-closing" `Quick test_self_closing;
          Alcotest.test_case "entities" `Quick test_entities;
          Alcotest.test_case "char refs" `Quick test_char_refs;
          Alcotest.test_case "cdata" `Quick test_cdata;
          Alcotest.test_case "comments skipped" `Quick test_comments_skipped;
          Alcotest.test_case "doctype skipped" `Quick test_doctype_skipped;
          Alcotest.test_case "xml decl skipped" `Quick test_xml_decl_skipped;
          Alcotest.test_case "attr quotes" `Quick test_attr_quotes;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "whitespace dropped" `Quick test_whitespace_dropped;
          Alcotest.test_case "whitespace kept" `Quick test_whitespace_kept;
          Alcotest.test_case "mixed content" `Quick test_mixed_content;
          Alcotest.test_case "scan counts" `Quick test_scan_counts;
          Alcotest.test_case "pinned error positions" `Quick test_error_positions;
          Alcotest.test_case "depth cap" `Quick test_depth_cap;
          Alcotest.test_case "empty file" `Quick test_empty_file;
        ] );
      ( "dom",
        [
          Alcotest.test_case "navigation" `Quick test_dom_navigation;
          Alcotest.test_case "orders unique" `Quick test_dom_orders_unique;
          Alcotest.test_case "order_of keys an unindexed tree" `Quick test_order_of_unindexed;
          Alcotest.test_case "parents" `Quick test_dom_parents;
          Alcotest.test_case "deep copy" `Quick test_deep_copy;
          Alcotest.test_case "find element" `Quick test_find_element;
          Alcotest.test_case "append" `Quick test_append;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "escape" `Quick test_escape;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "empty element form" `Quick test_empty_element_form;
          Alcotest.test_case "fragment" `Quick test_fragment;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "attr order" `Quick test_canonical_attr_order;
          Alcotest.test_case "whitespace" `Quick test_canonical_ws;
          Alcotest.test_case "distinguishes" `Quick test_canonical_distinguishes;
          Alcotest.test_case "empty forms" `Quick test_canonical_empty_forms;
          Alcotest.test_case "one pass = three-copy oracle" `Quick
            (Check.Property.check ~count:2000 ~seed:25L canonical_one_pass);
        ] );
      ( "properties",
        [ case ~count:200 ~seed:51L prop_serialize_parse_roundtrip;
          case ~count:200 ~seed:52L prop_canonical_stable;
          case ~count:500 ~seed:53L prop_parser_total;
          case ~count:500 ~seed:54L prop_scan_total;
          case ~count:100 ~seed:55L prop_truncation_fails_cleanly ] );
    ]
