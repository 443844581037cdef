(* Unit semantics of the evaluator on small hand-written documents, run on
   the main-memory backend. *)

module MM = Xmark_store.Backend_mainmem
module E = Xmark_xquery.Eval.Make (MM)
module Dom = Xmark_xml.Dom
module Canonical = Xmark_xml.Canonical
module Stats = Xmark_stats

let store_of src = MM.of_string ~level:`Full src

let doc =
  store_of
    {|<site>
  <people>
    <person id="p1"><name>Ann</name><age>30</age></person>
    <person id="p2"><name>Bob</name><age>20</age><homepage>hp</homepage></person>
    <person id="p3"><name>Cat</name><age>40</age></person>
  </people>
  <items>
    <item price="10.5"><name>hat</name><tag>x</tag><tag>y</tag></item>
    <item price="3"><name>pin</name></item>
  </items>
</site>|}

let run ?(store = doc) q = E.eval_string store q

let canon ?(store = doc) q = Canonical.of_nodes (E.result_to_dom store (run ~store q))

let check_canon ?store name expected q = Alcotest.(check string) name expected (canon ?store q)

let check_count name expected q = Alcotest.(check int) name expected (List.length (run q))

(* --- paths ----------------------------------------------------------------- *)

let test_child_paths () =
  check_count "three persons" 3 "/site/people/person";
  check_count "no such child" 0 "/site/nothing";
  check_canon "names" "<name>Ann</name>\n<name>Bob</name>\n<name>Cat</name>"
    "/site/people/person/name"

let test_descendant () =
  check_count "descendant names" 5 "//name";
  check_count "relative descendant" 2 "/site/items//name";
  check_count "descendant self excluded" 2 "//item"

let test_attributes () =
  check_canon "attr values" "10.5\n3" "/site/items/item/@price";
  check_count "missing attr" 0 "/site/items/item/@zz"

let test_text_step () =
  check_canon "text nodes" "Ann" {|/site/people/person[@id = "p1"]/name/text()|}

let test_wildcard () =
  check_count "star children" 2 "/site/*";
  check_count "all item children" 4 "/site/items/item/*"

let test_parent_axis () =
  check_count "parent" 1 {|/site/people/person[@id = "p1"]/..|};
  check_canon "parent name" "people" {|name(/site/people/person[@id = "p1"]/..)|}

let test_doc_order_dedup () =
  (* both parents collapse to distinct items; dedup happens across context *)
  check_count "union deduped" 2 "/site/items/item/name/.."

(* --- predicates -------------------------------------------------------------- *)

let test_positional () =
  check_canon "first" "<person id=\"p1\"><name>Ann</name><age>30</age></person>"
    "/site/people/person[1]";
  check_canon "last()" "Cat" "/site/people/person[last()]/name/text()";
  check_count "out of range" 0 "/site/people/person[9]"

let test_positional_per_context () =
  (* [1] applies per context node, not globally *)
  check_count "first tag of each item" 1 "/site/items/item/tag[1]"

let test_boolean_predicates () =
  check_count "with homepage" 1 "/site/people/person[homepage]";
  check_canon "age filter" "Cat" "/site/people/person[age > 35]/name/text()";
  check_count "attr comparison" 1 {|/site/items/item[@price = "3"]|}

let test_chained_predicates () =
  check_count "two predicates" 1 "/site/people/person[age > 15][2]"

(* --- comparisons, arithmetic ------------------------------------------------- *)

let test_general_comparison_existential () =
  (* any tag equals "y" *)
  check_canon "existential" "true" {|boolean(/site/items/item/tag = "y")|};
  check_canon "empty comparison false" "false" {|boolean(/site/nothing = "x")|}

let test_numeric_vs_string_comparison () =
  check_canon "numeric coercion" "true" "boolean(/site/items/item/@price > 10)";
  (* string compare when both untyped *)
  check_canon "string equality" "true" {|boolean(/site/people/person/name = "Bob")|}

let test_arithmetic () =
  check_canon "add" "3" "1 + 2";
  check_canon "precedence" "7" "1 + 2 * 3";
  check_canon "division" "2.5" "5 div 2";
  check_canon "mod" "1" "7 mod 2";
  check_canon "negation" "-4" "-(2 + 2)";
  check_canon "empty operand" "" "1 + /site/nothing";
  check_canon "string cast in arithmetic" "21" "/site/items/item[2]/@price * 7"

(* --- FLWOR -------------------------------------------------------------------- *)

let test_flwor_basic () =
  check_canon "for return" "<n>Ann</n>\n<n>Bob</n>\n<n>Cat</n>"
    "for $p in /site/people/person return <n>{$p/name/text()}</n>"

let test_flwor_let_where () =
  check_canon "let + where" "Cat"
    "for $p in /site/people/person let $a := $p/age where $a >= 40 return $p/name/text()"

let test_flwor_order_by () =
  check_canon "order by age" "Bob\nAnn\nCat"
    "for $p in /site/people/person order by $p/age return $p/name/text()";
  check_canon "descending" "Cat\nAnn\nBob"
    "for $p in /site/people/person order by $p/age descending return $p/name/text()";
  check_canon "string keys" "Ann\nBob\nCat"
    "for $p in /site/people/person order by $p/name return $p/name/text()"

let test_flwor_nested () =
  check_count "cross product" 6
    "for $p in /site/people/person, $i in /site/items/item return <x/>"

let test_flwor_let_binds_sequence () =
  check_canon "let binds whole sequence" "3"
    "let $ps := /site/people/person return count($ps)"

(* --- quantifiers, conditionals -------------------------------------------------- *)

let test_quantified () =
  check_canon "some true" "true" {|boolean(some $p in /site/people/person satisfies $p/age > 35)|};
  check_canon "some false" "false" {|boolean(some $p in /site/people/person satisfies $p/age > 99)|};
  check_canon "every" "true" {|boolean(every $p in /site/people/person satisfies $p/age >= 20)|}

let test_node_before () =
  check_canon "document order" "true"
    {|boolean(/site/people/person[@id = "p1"] << /site/people/person[@id = "p2"])|};
  check_canon "reverse is false" "false"
    {|boolean(/site/people/person[@id = "p2"] << /site/people/person[@id = "p1"])|}

let test_if () =
  check_canon "then" "1" "if (1 = 1) then 1 else 2";
  check_canon "else" "2" "if (1 = 3) then 1 else 2";
  check_canon "ebv of node set" "yes" {|if (/site/people) then "yes" else "no"|}

(* --- constructors ------------------------------------------------------------------ *)

let test_constructor_basic () =
  check_canon "empty" "<a></a>" "<a/>";
  check_canon "attrs" "<a x=\"1\"></a>" {|<a x="1"/>|};
  check_canon "attr template" "<a v=\"10.5\"></a>" {|<a v="{/site/items/item[1]/@price}"/>|};
  check_canon "text content" "<a>hi</a>" "<a>hi</a>"

let test_constructor_node_copy () =
  check_canon "deep copy" "<wrap><name>Ann</name></wrap>"
    "<wrap>{/site/people/person[1]/name}</wrap>"

let test_constructor_atomics_join () =
  check_canon "atomics joined with space" "<a>1 2 3</a>" "<a>{1, 2, 3}</a>"

let test_constructor_sequence_content () =
  check_canon "mixed sequence" "<a><b></b><c></c></a>" "<a>{<b/>, <c/>}</a>"

let test_constructed_navigation () =
  check_canon "path into constructed" "x" "let $e := <a><b>x</b></a> return $e/b/text()"

(* --- functions ----------------------------------------------------------------------- *)

let test_count_empty_exists () =
  check_canon "count" "3" "count(/site/people/person)";
  check_canon "empty true" "true" "empty(/site/nothing)";
  check_canon "exists" "true" "exists(/site/people)";
  check_canon "not" "false" "not(1 = 1)"

let test_string_functions () =
  check_canon "contains" "true" {|contains("seahorse", "horse")|};
  check_canon "not contains" "false" {|contains("seahorse", "zebra")|};
  check_canon "starts-with" "true" {|starts-with("seahorse", "sea")|};
  check_canon "starts-with longer prefix" "false" {|starts-with("sea", "seahorse")|};
  check_canon "ends-with" "true" {|ends-with("seahorse", "horse")|};
  check_canon "ends-with longer suffix" "false" {|ends-with("sea", "seahorse")|};
  check_canon "contains empty" "true" {|contains("sea", "")|};
  check_canon "contains at the end" "true" {|contains("seahorse", "rse")|};
  check_canon "string-length" "8" {|string-length("seahorse")|};
  check_canon "concat" "ab" {|concat("a", "b")|};
  check_canon "substring" "horse" {|substring("seahorse", 4)|};
  check_canon "substring 3-arg" "hor" {|substring("seahorse", 4, 3)|};
  (* start and length go through round(); a NaN bound selects nothing *)
  check_canon "substring rounds start and length" "234" {|substring("12345", 1.5, 2.6)|};
  check_canon "substring rounds start" "2345" {|substring("12345", 1.5)|};
  check_canon "substring before position 1" "12" {|substring("12345", 0, 3)|};
  check_canon "substring NaN start" "" {|substring("12345", number("x"), 3)|};
  check_canon "substring NaN start 2-arg" "" {|substring("12345", number("x"))|};
  check_canon "substring NaN length" "" {|substring("12345", 1, number("x"))|};
  check_canon "substring infinite length" "12345" {|substring("12345", -42, 1 div 0)|};
  check_canon "substring infinite start" "" {|substring("12345", -1 div 0, 1 div 0)|};
  check_canon "substring halves round up" "12" {|substring("12345", -2.5, 5)|};
  check_canon "upper" "HI" {|upper-case("hi")|};
  check_canon "string of node" "Ann" "string(/site/people/person[1]/name)";
  check_canon "string of number" "40" "string(40)";
  check_canon "normalize-space" "a b" {|normalize-space("  a   b  ")|};
  check_canon "translate" "bcd" {|translate("abc", "abc", "bcd")|};
  check_canon "substring-before" "1999" {|substring-before("1999/04/01", "/")|};
  check_canon "substring-after" "04/01" {|substring-after("1999/04/01", "/")|};
  check_canon "substring-before missing" "" {|substring-before("abc", "/")|};
  check_canon "substring-after missing" "" {|substring-after("abc", "/")|}

let test_numeric_functions () =
  check_canon "sum" "90" "sum(/site/people/person/age)";
  check_canon "avg" "30" "avg(/site/people/person/age)";
  check_canon "min" "20" "min(/site/people/person/age)";
  check_canon "max" "40" "max(/site/people/person/age)";
  check_canon "round" "3" "round(2.6)";
  check_canon "floor" "2" "floor(2.6)";
  check_canon "ceiling" "3" "ceiling(2.1)";
  check_canon "number of string" "10.5" "number(/site/items/item[1]/@price)"

let test_cardinality_functions () =
  check_canon "zero-or-one empty" "" "zero-or-one(/site/nothing)";
  check_canon "zero-or-one single" "Ann" "zero-or-one(/site/people/person[1]/name/text())";
  (match run "zero-or-one(/site/people/person)" with
  | exception E.Runtime_error _ -> ()
  | _ -> Alcotest.fail "zero-or-one should reject multiple");
  (match run "exactly-one(/site/nothing)" with
  | exception E.Runtime_error _ -> ()
  | _ -> Alcotest.fail "exactly-one should reject empty");
  check_canon "exactly-one" "Ann" "exactly-one(/site/people/person[1]/name/text())"

let test_distinct_values () =
  check_canon "distinct" "x\ny" "distinct-values(/site/items/item/tag)";
  check_canon "distinct dedups" "1" "count(distinct-values((1, 1, 1)))"

let test_data_and_name () =
  check_canon "data of attr" "10.5" "data(/site/items/item[1]/@price)";
  check_canon "name" "person" "name(/site/people/person[1])"

let test_id_function () =
  check_canon "id()" "Bob" {|id("p2")/name/text()|};
  check_count "id miss" 0 {|id("nope")|}

let test_user_functions () =
  check_canon "user function" "42"
    "declare function local:dbl($x) { $x * 2 }; local:dbl(21)" ;
  check_canon "recursion" "120"
    {|declare function local:fact($n) { if ($n <= 1) then 1 else $n * local:fact($n - 1) };
      local:fact(5)|}

let test_runtime_errors () =
  (match run "$undefined" with
  | exception E.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unbound variable");
  match run "unknown-function(1)" with
  | exception E.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unknown function"

(* user functions are parsed at query level; canon uses eval_string which
   handles prologs, so the declare-function tests above work unchanged. *)

let test_sequences () =
  check_canon "comma" "1\n2\n3" "(1, 2, 3)";
  check_canon "nested flatten" "1\n2\n3" "(1, (2, 3))";
  check_count "sequence of nodes" 5 "(/site/people/person, /site/items/item)";
  check_canon "reverse" "3\n2\n1" "reverse((1, 2, 3))";
  check_canon "subsequence" "2\n3" "subsequence((1, 2, 3, 4), 2, 2)";
  check_canon "subsequence to end" "3\n4" "subsequence((1, 2, 3, 4), 3)"

(* --- levels: same result without accelerators --------------------------------- *)

let test_accelerator_equivalence () =
  let src =
    {|<site><a id="k1"><b><c>one</c></b></a><a id="k2"><b><c>two</c></b></a></site>|}
  in
  let full = store_of src in
  let plain = MM.of_string ~level:`Plain src in
  List.iter
    (fun q ->
      let r1 = Canonical.of_nodes (E.result_to_dom full (run ~store:full q)) in
      let r2 = Canonical.of_nodes (E.result_to_dom plain (run ~store:plain q)) in
      Alcotest.(check string) q r1 r2)
    [
      "//c"; "/site//c/text()"; "count(//b)"; {|/site/a[@id = "k2"]/b/c/text()|};
      {|id("k1")|}; "for $x in //a order by $x/@id descending return $x/@id";
    ]

(* --- corner semantics ---------------------------------------------------------- *)

let test_corner_semantics () =
  (* attribute wildcard *)
  check_count "all attributes" 1 "/site/items/item[2]/@*";
  (* parent with a name test filters *)
  check_count "parent name match" 1 {|/site/people/person[@id = "p1"]/name/parent::person|};
  check_count "parent name mismatch" 0 {|/site/people/person[@id = "p1"]/name/parent::item|};
  (* explicit axes parse and run *)
  check_count "child::" 3 "/site/child::people/child::person";
  check_count "descendant::" 5 "/site/descendant::name";
  (* descendant text() *)
  check_canon "descendant text of item 2" "pin" "/site/items/item[2]//text()";
  (* filter on a parenthesized sequence *)
  check_canon "sequence filter" "20" "(10, 20, 30)[2]";
  (* order by with empty keys: empty sorts first (empty least) *)
  check_canon "empty keys first" "Ann\nCat\nBob"
    "for $p in /site/people/person order by $p/homepage, $p/name return $p/name/text()";
  (* quantifiers over empty sequences *)
  check_canon "some over empty" "false" "boolean(some $x in /site/nothing satisfies 1 = 1)";
  check_canon "every over empty" "true" "boolean(every $x in /site/nothing satisfies 1 = 2)";
  (* node-order comparison with empty operands is false *)
  check_canon "<< with empty" "false" "boolean(/site/nothing << /site/people)";
  (* arithmetic with NaN coercion never satisfies comparisons *)
  check_canon "string arith is nan" "false" {|boolean(("abc" * 2) > 0)|};
  (* if over a node sequence uses effective boolean value *)
  check_canon "ebv multi-node" "2" "if (/site/people/person) then 2 else 3"

let test_before_errors_on_sequences () =
  match run "/site/people/person << /site/items/item" with
  | exception E.Runtime_error _ -> ()
  | _ -> Alcotest.fail "<< should reject multi-node operands"

(* --- document order and duplicates on every Eval-backed system ----------------- *)

(* Nested items and several attributes per person: step results from
   overlapping, repeated or reversed context nodes must come back in
   document order without duplicates, on every store. *)
let order_src =
  {|<site>
  <people>
    <person id="p1" income="10"><name>Ann</name></person>
    <person id="p2" income="20" tier="gold"><name>Bob</name></person>
    <person id="p3"><name>Cat</name></person>
  </people>
  <regions><europe><item id="i1"><item id="i2"/></item></europe><asia><item id="i3"/></asia></regions>
</site>|}

let order_cases =
  let names = "<name>Ann</name>\n<name>Bob</name>\n<name>Cat</name>" in
  let attrs = "p1\n10\np2\n20\ngold\np3" in
  [
    ("nested descendant contexts", "count(/site//*//item) = count(/site//item)", "true");
    ("nested descendant count", "count(/site//*//item)", "3");
    ("nested descendant attributes", "/site//*//item/@id", "i1\ni2\ni3");
    ("repeated context nodes", "(/site/people/person, /site/people/person)/name", names);
    ("reversed context nodes", "reverse(/site/people/person)/name", names);
    ("several attributes per owner", "/site/people/person/@*", attrs);
    ("repeated attribute owners", "(/site/people/person, /site/people/person)/@*", attrs);
    ("named attribute, repeated owners", "(/site/people/person, /site/people/person)/@income",
      "10\n20");
    ("reversed attribute owners", "reverse(/site/people/person)/@income", "10\n20");
    ("attributes of two constructed owners", {|count((<a x="1"/>, <b x="1"/>)/@x)|}, "2");
    ("attributes of one constructed owner, repeated",
      {|let $e := <a x="1" y="2"/> return count(($e, $e)/@*)|}, "2");
  ]

(* Examples from XQuery 1.0 and XPath 2.0 Functions and Operators:
   fn:substring-before/-after (7.5.4, 7.5.5: an empty $arg2 yields "" and
   $arg1) and fn:round (6.4.4: halves round toward positive infinity). *)
let spec_cases =
  [
    ("substring-after, empty separator", {|substring-after("abc", "")|}, "abc");
    ("substring-before, empty separator", {|substring-before("abc", "")|}, "");
    ("substring-after", {|substring-after("tattoo", "tat")|}, "too");
    ("substring-before", {|substring-before("tattoo", "attoo")|}, "t");
    ("round up", "round(2.5)", "3");
    ("round down", "round(2.4999)", "2");
    ("round a negative half", "round(-2.5)", "-2");
    (* F&O 17.1.2: a NaN or infinite xs:double casts to NaN, INF, -INF *)
    ("zero by zero", "0 div 0", "NaN");
    ("positive by zero", "1 div 0", "INF");
    ("negative by zero", "-1 div 0", "-INF");
    ("number of a non-numeric string", {|string(number("abc"))|}, "NaN");
    (* XML Schema's xs:double lexical space, not OCaml's *)
    ("underscore is not a digit", {|number("1_000")|}, "NaN");
    ("no hexadecimal", {|number("0x10")|}, "NaN");
    ("infinity is spelled INF", {|number("inf")|}, "NaN");
    ("INF", {|number("INF")|}, "INF");
    ("surrounding whitespace", {|number(" 12 ")|}, "12");
    ("trailing point", {|number("1.")|}, "1");
    ("leading point and exponent", {|number(".5e1")|}, "5");
  ]

let test_cases_on cases system () =
  let session = Xmark_core.Runner.load ~source:(`Text order_src) system in
  List.iter
    (fun (name, q, expected) ->
      Alcotest.(check string) (name ^ ": " ^ q) expected
        (Xmark_core.Runner.canonical (Xmark_core.Runner.run_text_session session q)))
    cases

let eval_systems = Xmark_core.Runner.[ A; B; D; E; F; G ]

(* Every backend instance of the evaluator raises the one exception, so
   a caller outside the functor can match it. *)
let test_one_runtime_error () =
  let module Runner = Xmark_core.Runner in
  List.iter
    (fun sys ->
      let session = Runner.load ~source:(`Text order_src) sys in
      match Runner.run_text session.Runner.store "exactly-one(())" with
      | _ -> Alcotest.failf "%s: exactly-one(()) answered" (Runner.system_name sys)
      | exception Xmark_xquery.Eval.Runtime_error _ -> ())
    Runner.[ A; B; D; G ]

(* --- constructed content: each node built once, copied only when shared --- *)

(* A let used once in constructor content is inlined and its tree
   adopted; a let used twice, or under a binder, is copied at each use,
   so the bound tree itself never gains a parent.  Constructed trees are
   keyed when an order is first asked of them. *)
let constructed_cases =
  [
    ("let used twice", "let $x := <a><b/></a> return <c>{$x, $x}</c>",
      "<c><a><b></b></a><a><b></b></a></c>");
    ("let used under a nested for", "let $x := <a/> return <c>{for $i in (1, 2) return $x}</c>",
      "<c><a></a><a></a></c>");
    ("a tree per use under a nested for",
      "let $x := <a/> return count((for $i in (1, 2) return <c>{$x}</c>)/a/..)", "2");
    ("no parent after construction", "let $x := <a/> return (<c>{$x}</c>, count($x/..))",
      "<c><a></a></c>\n0");
    ("no parent after an inner let", "let $x := <a/> let $c := <c>{$x}</c> return count($x/..)",
      "0");
    ("<< inside a constructed tree",
      {|let $e := <r>{<a x="1" y="2"/>, <b z="3"/>}</r> return ($e/a << $e/b, $e/b << $e/a)|},
      "true\nfalse");
    ("@* order inside a constructed tree",
      {|let $e := <r>{<a x="1" y="2"/>, <b z="3"/>}</r> return $e/*/@*|}, "1\n2\n3");
    ("order in a copied subtree",
      {|let $e := <r><a x="1"/></r> let $f := <s>{$e/a, <b y="2"/>}</s>
        return ($f/a << $f/b, $e/a << $e/a/.., $f/*/@*)|},
      "true\nfalse\n1\n2");
    ("nested constructors",
      {|<a>{<b>{<c>x</c>, "y"}</b>, for $i in (1, 2) return <d n="{$i}">{$i}</d>}</a>|},
      {|<a><b><c>x</c>y</b><d n="1">1</d><d n="2">2</d></a>|});
    ("let inlined into an if branch", "let $x := <a/> return <c>{if (1 = 1) then $x else ()}</c>",
      "<c><a></a></c>");
    ("let inlined per tuple",
      "for $p in /site/people/person let $n := <n>{$p/name/text()}</n> return <p>{$n}</p>",
      "<p><n>Ann</n></p>\n<p><n>Bob</n></p>\n<p><n>Cat</n></p>");
  ]

(* --- loop invariants: evaluated once, never where they change an answer --- *)

(* the count a counter reaches while [f] runs *)
let counted name f =
  Stats.reset ();
  Stats.enable ();
  Fun.protect
    ~finally:(fun () ->
      Stats.reset ();
      Stats.disable ())
    (fun () ->
      f ();
      Stats.total name)

let function_calls q = counted "function_calls" (fun () -> ignore (run q))

let test_invariants_once () =
  (* three outer counts, and the inner count once per inner loop (it reads
     $p), not once per (person, item) pair *)
  Alcotest.(check int) "invariant of the inner loop" 6
    (function_calls
       "for $p in /site/people/person return count(for $i in /site/items/item where \
        count($p/../person) > $i/@price return $i)");
  (* reading no variable of either loop, it runs once in all *)
  Alcotest.(check int) "invariant of both loops" 4
    (function_calls
       "for $p in /site/people/person return count(for $i in /site/items/item where $p/age > \
        count(/site/people/person) return $i)");
  (* a shared for source is evaluated once per run, not once per plan *)
  let c =
    E.compile doc
      (Xmark_xquery.Parser.parse_query
         "for $p in /site/people/person return count(for $i in /site/items/item return $i)")
  in
  let path_steps () = counted "path_steps" (fun () -> ignore (E.run c)) in
  let first = path_steps () in
  Alcotest.(check int) "second run of one plan" first (path_steps ());
  check_canon "answers" "0\n0\n2"
    "for $p in /site/people/person return count(for $i in /site/items/item where $p/age > \
     count(/site/people/person) * 10 return $i)"

let test_invariants_lazy () =
  (* the invariant would raise, but no loop body runs *)
  check_canon "where of an empty loop" ""
    "for $p in /site/people/person return \
     for $i in /site/nothing where exactly-one(/site/people/person) return $i";
  check_canon "return of an empty loop" "0"
    "count(for $i in /site/nothing return exactly-one(/site/people/person))";
  match run "for $i in /site/people/person where exactly-one(/site/people/person) return $i" with
  | exception E.Runtime_error _ -> ()
  | _ -> Alcotest.fail "the invariant of a running loop still raises"

let test_constructors_not_hoisted () =
  (* one fresh tree per tuple: three distinct parents, three attributes *)
  check_canon "parents of constructed children" "3"
    "count((for $p in /site/people/person return <a><b/></a>)/b/..)";
  check_canon "attributes of constructed elements" "3"
    {|count((for $p in /site/people/person return <a x="1"/>)/@x)|};
  (* nor is the hash join's build side when it constructs *)
  check_canon "join over a constructed source" "2"
    {|count((for $p in (1, 2) return
              for $v in <r><a k="1"/></r>/a where $v/@k = "1" return $v)/..)|}

let test_where_before_let () =
  (* the conjunct on $p runs before the let, so exactly-one only sees the
     person who has a homepage *)
  check_canon "where tested before the let" "<homepage>hp</homepage>"
    {|for $p in /site/people/person let $h := exactly-one($p/homepage)
      where $p/name = "Bob" return $h|};
  (* a function body reads its caller's variables, so a conjunct calling
     one waits for every clause *)
  check_canon "conjunct calling a user function" "Bob/pin"
    {|declare function local:cheap() { $i/@price < 5 };
      for $p in /site/people/person, $i in /site/items/item
      where $p/age < 25 and local:cheap() return concat($p/name, "/", $i/name)|};
  check_canon "conjuncts split across clauses" "Bob/pin"
    {|for $p in /site/people/person, $i in /site/items/item
      where $i/@price < 5 and $p/age < 25 return concat($p/name, "/", $i/name)|}

let copies f = counted "constructed_nodes_copied" f

let test_copy_counter () =
  Alcotest.(check int) "let used twice: both uses copied" 4
    (copies (fun () -> ignore (canon "let $x := <a><b/></a> return <c>{$x, $x}</c>")));
  Alcotest.(check int) "let used once: adopted" 0
    (copies (fun () -> ignore (canon "let $x := <a><b/></a> return <c>{$x}</c>")));
  let session =
    Xmark_core.Runner.load
      ~source:(`Text (Xmark_xmlgen.Generator.to_string ~factor:0.002 ()))
      Xmark_core.Runner.D
  in
  List.iter
    (fun q ->
      Alcotest.(check int) (Printf.sprintf "Q%d on D" q) 0
        (copies (fun () ->
             ignore (Xmark_core.Runner.canonical (Xmark_core.Runner.run_session session q)))))
    [ 9; 10 ]

(* The benchmark's theta joins run as nested loops on A, B, E, F and G
   and as System D's sorted-key plan on D; C runs its own plans. *)
let test_theta_joins_agree () =
  let src = Xmark_xmlgen.Generator.to_string ~factor:0.002 () in
  let answer sys q =
    Xmark_core.Runner.canonical
      (Xmark_core.Runner.run_session (Xmark_core.Runner.load ~source:(`Text src) sys) q)
  in
  List.iter
    (fun q ->
      let d = answer Xmark_core.Runner.D q and c = answer Xmark_core.Runner.C q in
      Alcotest.(check string) (Printf.sprintf "Q%d C = D" q) d c;
      List.iter
        (fun sys ->
          Alcotest.(check string)
            (Printf.sprintf "Q%d %s = D" q (Xmark_core.Runner.system_name sys))
            d (answer sys q))
        Xmark_core.Runner.[ A; B; E; F; G ])
    [ 11; 12 ]

(* --- optimizer: rewrites must preserve semantics ---------------------------- *)

let opt_doc =
  store_of
    {|<site>
  <people>
    <person id="q1"><name>Ann</name><inc>100</inc></person>
    <person id="q2"><name>Bob</name><inc>300</inc></person>
    <person id="q3"><name>Ann</name></person>
  </people>
  <sales>
    <sale who="q1" amt="5"/>
    <sale who="q2" amt="7"/>
    <sale who="q1" amt="9"/>
    <sale who="zz" amt="1"/>
  </sales>
</site>|}

let both q =
  let plain = E.eval_string ~optimize:false opt_doc q in
  let opt = E.eval_string ~optimize:true opt_doc q in
  ( Canonical.of_nodes (E.result_to_dom opt_doc plain),
    Canonical.of_nodes (E.result_to_dom opt_doc opt) )

(* System D's theta-join plan: the same query with [optimize] off and on *)
let check_same name q =
  let plain, opt = both q in
  Alcotest.(check string) name plain opt

(* canonical answer of a compiled query, and the probes its hash joins
   answered (counted only once a join table is usable) *)
let canon_counting store ast =
  Stats.reset ();
  Stats.enable ();
  Fun.protect
    ~finally:(fun () ->
      Stats.reset ();
      Stats.disable ())
    (fun () ->
      let v = E.run (E.compile store ast) in
      (Canonical.of_nodes (E.result_to_dom store v), Stats.total "join_probes"))

(* The equi-join rewrite runs without any option, so its oracle is the
   same query with every [where] wrapped in [boolean(...)], which the
   rewrite does not match: a nested loop.  [plan] says whether the plain
   run must probe a hash table ([`Hash]) or fall back to the nested loop
   ([`Loop]); the oracle never probes. *)
let check_join ?(plan = `Hash) name q =
  let hashed, probes = canon_counting opt_doc (Xmark_xquery.Parser.parse_query q) in
  let looped, probes_loop = canon_counting opt_doc (Join_oracle.parse q) in
  (match plan with
  | `Hash -> Alcotest.(check bool) (name ^ ": hash join probed") true (probes > 0)
  | `Loop -> Alcotest.(check int) (name ^ ": nested loop, no probe") 0 probes);
  Alcotest.(check int) (name ^ ": oracle probes no join") 0 probes_loop;
  Alcotest.(check string) name looped hashed

let test_optimizer_equi_join () =
  check_join "hash join on attrs"
    {|for $p in /site/people/person
      return <r>{count(for $s in /site/sales/sale where $s/@who = $p/@id return $s)}</r>|};
  check_join "join keys flipped"
    {|for $p in /site/people/person
      return <r>{for $s in /site/sales/sale where $p/@id = $s/@who return $s/@amt}</r>|};
  check_join "unmatched probe"
    {|for $s in /site/sales/sale where $s/@who = "nobody" return $s|}

(* A join side that reads the focus differs per context item, so it
   must not be built once and reused: a relative source, or a key that
   reads the context item, keeps the nested loop. *)
let test_optimizer_focus_dependent_join () =
  check_join ~plan:`Loop "relative source in a predicate"
    {|for $p in /site/people/person[count(for $n in name where $n = "Bob" return $n) > 0]
      return <r>{$p/@id}</r>|};
  check_join ~plan:`Loop "key reads the context item"
    {|for $p in /site/people/person[count(for $s in /site/sales/sale
                                           where ($s/@who, name) = "Bob" return $s) > 0]
      return <r>{$p/@id}</r>|};
  check_join "probe may read the context item"
    {|for $p in /site/people/person[count(for $s in /site/sales/sale
                                           where $s/@who = @id return $s) > 1]
      return <r>{$p/@id}</r>|}

let test_optimizer_numeric_keys_fall_back () =
  (* numeric comparison semantics differ from string equality: "5" = "5.0"
     numerically; the optimizer must bail when keys are numeric *)
  check_join ~plan:`Loop "numeric equality"
    {|for $p in /site/people/person
      return <r>{count(for $s in /site/sales/sale where $s/@amt = 5 return $s)}</r>|}

let test_optimizer_inequality_count () =
  check_same "greater-than count"
    {|for $p in /site/people/person
      let $l := for $s in /site/sales/sale where $p/inc > 20 * $s/@amt return $s
      return <r>{count($l)}</r>|};
  check_same "fusion declined on untyped-vs-untyped (string semantics)"
    {|for $p in /site/people/person
      let $l := for $s in /site/sales/sale where $p/inc >= $s/@amt return $s
      return <r n="{$p/@id}">{count($l)}</r>|};
  check_same "less-than count"
    {|for $p in /site/people/person
      let $l := for $s in /site/sales/sale where $p/inc < 20 * $s/@amt return $s
      return <r>{count($l)}</r>|};
  check_same "key side on the left"
    {|for $p in /site/people/person
      let $l := for $s in /site/sales/sale where 20 * $s/@amt <= $p/inc return $s
      return <r>{count($l)}</r>|};
  (* person q3 has no inc: comparison with empty is false -> count 0 *)
  check_same "empty probe"
    {|for $p in /site/people/person
      let $l := for $s in /site/sales/sale where number($p/inc) >= 1 * $s/@amt return $s
      return <r n="{$p/@id}">{count($l)}</r>|};
  (* the sorted key table of a relative source would be person q1's *)
  check_same "relative source in a predicate"
    {|for $p in /site/people/person[count(for $i in inc where $i > 150 return $i) > 0]
      return <r>{$p/@id}</r>|}

let test_optimizer_let_not_inlined_when_used () =
  (* $l used beyond count: the let must survive and results stay equal *)
  check_join "mixed use of let"
    {|for $p in /site/people/person
      let $l := for $s in /site/sales/sale where $s/@who = $p/@id return $s
      return <r c="{count($l)}">{$l}</r>|}

let test_optimizer_order_preserved () =
  check_join "join result order"
    {|for $s in /site/sales/sale where $s/@who = "q1" return $s/@amt|}

let test_optimizer_benchmark_queries () =
  (* the twenty queries give identical canonical results with System D's
     plan (hash joins plus theta-join fusion) and with every join run as
     a nested loop, on the same store *)
  let store = store_of (Xmark_xmlgen.Generator.to_string ~factor:0.002 ()) in
  List.iter
    (fun info ->
      let q = info.Xmark_core.Queries.text in
      let looped =
        Canonical.of_nodes
          (E.result_to_dom store (E.run (E.compile store (Join_oracle.parse q))))
      in
      let opt =
        Canonical.of_nodes (E.result_to_dom store (E.eval_string ~optimize:true store q))
      in
      Alcotest.(check string) (Printf.sprintf "Q%d" info.Xmark_core.Queries.number) looped opt)
    Xmark_core.Queries.all

let () =
  Alcotest.run "xquery-eval"
    [
      ( "paths",
        [
          Alcotest.test_case "child" `Quick test_child_paths;
          Alcotest.test_case "descendant" `Quick test_descendant;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "text()" `Quick test_text_step;
          Alcotest.test_case "wildcard" `Quick test_wildcard;
          Alcotest.test_case "parent" `Quick test_parent_axis;
          Alcotest.test_case "doc order dedup" `Quick test_doc_order_dedup;
        ] );
      ( "predicates",
        [
          Alcotest.test_case "positional" `Quick test_positional;
          Alcotest.test_case "positional per context" `Quick test_positional_per_context;
          Alcotest.test_case "boolean" `Quick test_boolean_predicates;
          Alcotest.test_case "chained" `Quick test_chained_predicates;
        ] );
      ( "operators",
        [
          Alcotest.test_case "existential comparison" `Quick test_general_comparison_existential;
          Alcotest.test_case "numeric vs string" `Quick test_numeric_vs_string_comparison;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "node before" `Quick test_node_before;
        ] );
      ( "flwor",
        [
          Alcotest.test_case "basic" `Quick test_flwor_basic;
          Alcotest.test_case "let/where" `Quick test_flwor_let_where;
          Alcotest.test_case "order by" `Quick test_flwor_order_by;
          Alcotest.test_case "nested" `Quick test_flwor_nested;
          Alcotest.test_case "let binds sequence" `Quick test_flwor_let_binds_sequence;
          Alcotest.test_case "quantified" `Quick test_quantified;
          Alcotest.test_case "if" `Quick test_if;
        ] );
      ( "constructors",
        [
          Alcotest.test_case "basic" `Quick test_constructor_basic;
          Alcotest.test_case "node copy" `Quick test_constructor_node_copy;
          Alcotest.test_case "atomics join" `Quick test_constructor_atomics_join;
          Alcotest.test_case "sequence content" `Quick test_constructor_sequence_content;
          Alcotest.test_case "navigate constructed" `Quick test_constructed_navigation;
        ] );
      ( "functions",
        [
          Alcotest.test_case "count/empty/exists" `Quick test_count_empty_exists;
          Alcotest.test_case "strings" `Quick test_string_functions;
          Alcotest.test_case "numerics" `Quick test_numeric_functions;
          Alcotest.test_case "cardinality" `Quick test_cardinality_functions;
          Alcotest.test_case "distinct-values" `Quick test_distinct_values;
          Alcotest.test_case "data/name" `Quick test_data_and_name;
          Alcotest.test_case "id" `Quick test_id_function;
          Alcotest.test_case "user functions" `Quick test_user_functions;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "one runtime error on every backend" `Quick
            test_one_runtime_error;
          Alcotest.test_case "sequences" `Quick test_sequences;
          Alcotest.test_case "corner semantics" `Quick test_corner_semantics;
          Alcotest.test_case "node-order comparison arity" `Quick test_before_errors_on_sequences;
        ] );
      ( "document order",
        List.map
          (fun sys ->
            Alcotest.test_case (Xmark_core.Runner.system_name sys) `Quick
              (test_cases_on order_cases sys))
          eval_systems );
      ( "spec examples",
        List.map
          (fun sys ->
            Alcotest.test_case (Xmark_core.Runner.system_name sys) `Quick
              (test_cases_on spec_cases sys))
          eval_systems );
      ( "constructed content",
        List.map
          (fun sys ->
            Alcotest.test_case (Xmark_core.Runner.system_name sys) `Quick
              (test_cases_on constructed_cases sys))
          eval_systems
        @ [ Alcotest.test_case "copy counter" `Quick test_copy_counter ] );
      ( "loop invariants",
        [
          Alcotest.test_case "evaluated once per loop" `Quick test_invariants_once;
          Alcotest.test_case "lazy in empty loops" `Quick test_invariants_lazy;
          Alcotest.test_case "constructors not hoisted" `Quick test_constructors_not_hoisted;
          Alcotest.test_case "where before let" `Quick test_where_before_let;
          Alcotest.test_case "Q11/Q12 agree with C and D" `Quick test_theta_joins_agree;
        ] );
      ( "accelerators",
        [ Alcotest.test_case "same results with and without" `Quick test_accelerator_equivalence ] );
      ( "optimizer",
        [
          Alcotest.test_case "equi-join rewrite" `Quick test_optimizer_equi_join;
          Alcotest.test_case "focus-dependent join sides" `Quick
            test_optimizer_focus_dependent_join;
          Alcotest.test_case "numeric keys fall back" `Quick test_optimizer_numeric_keys_fall_back;
          Alcotest.test_case "inequality count fusion" `Quick test_optimizer_inequality_count;
          Alcotest.test_case "let kept when used directly" `Quick
            test_optimizer_let_not_inlined_when_used;
          Alcotest.test_case "order preserved" `Quick test_optimizer_order_preserved;
          Alcotest.test_case "benchmark queries unchanged" `Quick
            test_optimizer_benchmark_queries;
        ] );
    ]
