module P = Xmark_xquery.Parser
module Ast = Xmark_xquery.Ast
module Symbol = Xmark_xml.Symbol

let parse = P.parse_expr

let sym = Symbol.intern

let parses src =
  match parse src with
  | _ -> ()
  | exception e -> Alcotest.failf "did not parse %S: %s" src (P.describe_error src e)

let rejects src =
  match parse src with
  | exception P.Error _ -> ()
  | _ -> Alcotest.failf "should not parse %S" src

let test_literals () =
  Alcotest.(check bool) "number" true (parse "42" = Ast.Number 42.0);
  Alcotest.(check bool) "decimal" true (parse "0.02" = Ast.Number 0.02);
  Alcotest.(check bool) "decimal, trailing point" true (parse "1." = Ast.Number 1.0);
  Alcotest.(check bool) "double" true (parse "1.5e3" = Ast.Number 1500.0);
  Alcotest.(check bool) "double, no point" true (parse "1e20" = Ast.Number 1e20);
  Alcotest.(check bool) "double, signed exponent" true (parse ".5E-1" = Ast.Number 0.05);
  Alcotest.(check bool) "string dq" true (parse "\"hi\"" = Ast.Literal "hi");
  Alcotest.(check bool) "string sq" true (parse "'hi'" = Ast.Literal "hi");
  Alcotest.(check bool) "escaped quote" true (parse "\"a\"\"b\"" = Ast.Literal "a\"b");
  Alcotest.(check bool) "var" true (parse "$x" = Ast.Var "x");
  Alcotest.(check bool) "empty seq" true (parse "()" = Ast.Sequence [])

let test_paths () =
  (match parse "/site/people" with
  | Ast.Path (Ast.Root, [ s1; s2 ]) ->
      Alcotest.(check bool) "step1" true (s1.Ast.test = Ast.Name (sym "site") && s1.Ast.axis = Ast.Child);
      Alcotest.(check bool) "step2" true (s2.Ast.test = Ast.Name (sym "people"))
  | _ -> Alcotest.fail "absolute path");
  (match parse "$b//item" with
  | Ast.Path (Ast.Var "b", [ s ]) ->
      Alcotest.(check bool) "descendant" true (s.Ast.axis = Ast.Descendant)
  | _ -> Alcotest.fail "descendant path");
  (match parse "$b/@id" with
  | Ast.Path (Ast.Var "b", [ s ]) ->
      Alcotest.(check bool) "attribute axis" true (s.Ast.axis = Ast.Attribute)
  | _ -> Alcotest.fail "attribute path");
  (match parse "$b/text()" with
  | Ast.Path (_, [ s ]) -> Alcotest.(check bool) "text test" true (s.Ast.test = Ast.Text_test)
  | _ -> Alcotest.fail "text()");
  (match parse "document(\"x\")/a" with
  | Ast.Path (Ast.Root, _) -> ()
  | _ -> Alcotest.fail "document() is root");
  match parse "$a/*" with
  | Ast.Path (_, [ s ]) -> Alcotest.(check bool) "wildcard" true (s.Ast.test = Ast.Star)
  | _ -> Alcotest.fail "wildcard"

let test_predicates () =
  (match parse "$b/bidder[1]" with
  | Ast.Path (_, [ s ]) -> (
      match s.Ast.preds with
      | [ Ast.Number 1.0 ] -> ()
      | _ -> Alcotest.fail "positional predicate")
  | _ -> Alcotest.fail "pred path");
  match parse {|/site/people/person[@id = "person0"]|} with
  | Ast.Path (_, [ _; _; s ]) -> (
      match s.Ast.preds with
      | [ Ast.Compare (Ast.Eq, Ast.Path (Ast.Context, _), Ast.Literal "person0") ] -> ()
      | _ -> Alcotest.fail "id predicate shape")
  | _ -> Alcotest.fail "id path"

let test_relative_path_in_predicate () =
  match parse "$a[price/text() > 40]" with
  | Ast.Filter (Ast.Var "a", [ Ast.Compare (Ast.Gt, Ast.Path (Ast.Context, steps), Ast.Number 40.0) ])
    ->
      Alcotest.(check int) "two steps" 2 (List.length steps)
  | _ -> Alcotest.fail "relative path in predicate"

let test_flwor () =
  match parse "for $x in /a let $y := $x/b where $y > 1 order by $y descending return $y" with
  | Ast.Flwor f ->
      Alcotest.(check int) "clauses" 2 (List.length f.Ast.clauses);
      Alcotest.(check bool) "where" true (f.Ast.where <> None);
      (match f.Ast.order with
      | [ { Ast.descending = true; _ } ] -> ()
      | _ -> Alcotest.fail "order spec");
      Alcotest.(check bool) "return" true (f.Ast.ret = Ast.Var "y")
  | _ -> Alcotest.fail "flwor"

let test_flwor_multi_for () =
  match parse "for $a in /x, $b in /y return ($a, $b)" with
  | Ast.Flwor { clauses = [ Ast.For ("a", _); Ast.For ("b", _) ]; _ } -> ()
  | _ -> Alcotest.fail "multi-var for"

let test_quantified () =
  match parse "some $p in $b/x, $q in $b/y satisfies $p << $q" with
  | Ast.Quantified (Ast.Some_, [ ("p", _); ("q", _) ], Ast.Node_before (_, _)) -> ()
  | _ -> Alcotest.fail "quantified"

let test_if () =
  match parse "if ($a) then 1 else 2" with
  | Ast.If (Ast.Var "a", Ast.Number 1.0, Ast.Number 2.0) -> ()
  | _ -> Alcotest.fail "if"

let test_operators () =
  (match parse "1 + 2 * 3" with
  | Ast.Arith (Ast.Add, Ast.Number 1.0, Ast.Arith (Ast.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "precedence");
  (match parse "$a = 1 or $b = 2 and $c = 3" with
  | Ast.Or (_, Ast.And (_, _)) -> ()
  | _ -> Alcotest.fail "or/and precedence");
  (match parse "$a <= $b" with
  | Ast.Compare (Ast.Le, _, _) -> ()
  | _ -> Alcotest.fail "le");
  (match parse "$a << $b" with
  | Ast.Node_before _ -> ()
  | _ -> Alcotest.fail "before");
  match parse "10 div 2 mod 3" with
  | Ast.Arith (Ast.Mod, Ast.Arith (Ast.Div, _, _), _) -> ()
  | _ -> Alcotest.fail "div/mod"

let test_hyphenated_names () =
  (match parse "zero-or-one($x)" with
  | Ast.Call ("zero-or-one", [ Ast.Var "x" ]) -> ()
  | _ -> Alcotest.fail "hyphenated function");
  match parse "$a - $b" with
  | Ast.Arith (Ast.Sub, Ast.Var "a", Ast.Var "b") -> ()
  | _ -> Alcotest.fail "spaced subtraction"

let test_function_calls () =
  (match parse "count(/a)" with
  | Ast.Call ("count", [ Ast.Path (Ast.Root, _) ]) -> ()
  | _ -> Alcotest.fail "count");
  (match parse "concat($a, \",\", $b)" with
  | Ast.Call ("concat", [ _; _; _ ]) -> ()
  | _ -> Alcotest.fail "concat");
  match parse "fn:data($x)" with
  | Ast.Call ("data", _) -> ()
  | _ -> Alcotest.fail "fn: prefix stripped"

let test_constructors () =
  (match parse "<a/>" with
  | Ast.Elem_ctor (t, [], []) when t = sym "a" -> ()
  | _ -> Alcotest.fail "empty ctor");
  (match parse {|<a x="1" y="{$v}"/>|} with
  | Ast.Elem_ctor (t, [ ("x", [ Ast.A_text "1" ]); ("y", [ Ast.A_expr (Ast.Var "v") ]) ], [])
    when t = sym "a" ->
      ()
  | _ -> Alcotest.fail "attrs");
  (match parse "<a>text {$v} more</a>" with
  | Ast.Elem_ctor (t, [], [ Ast.C_text "text "; Ast.C_expr (Ast.Var "v"); Ast.C_text " more" ])
    when t = sym "a" ->
      ()
  | _ -> Alcotest.fail "mixed content");
  (match parse "<a><b>{1}</b></a>" with
  | Ast.Elem_ctor (t, [], [ Ast.C_expr (Ast.Elem_ctor (u, [], _)) ])
    when t = sym "a" && u = sym "b" ->
      ()
  | _ -> Alcotest.fail "nested ctor");
  match parse "<a>{{literal}}</a>" with
  | Ast.Elem_ctor (t, [], [ Ast.C_text "{literal}" ]) when t = sym "a" -> ()
  | _ -> Alcotest.fail "escaped braces"

let test_boundary_ws_dropped () =
  match parse "<a>\n  <b/>\n</a>" with
  | Ast.Elem_ctor (t, [], [ Ast.C_expr (Ast.Elem_ctor (u, _, _)) ])
    when t = sym "a" && u = sym "b" ->
      ()
  | _ -> Alcotest.fail "boundary whitespace dropped"

let test_comments () =
  parses "(: hello :) 1 + (: nested (: deep :) :) 2";
  rejects "(: unterminated"

let test_prolog () =
  let q = P.parse_query "declare function local:f($x) { $x * 2 }; local:f(21)" in
  (match q.Ast.functions with
  | [ { Ast.fname = "f"; params = [ "x" ]; _ } ] -> ()
  | _ -> Alcotest.fail "function declaration");
  match q.Ast.main with
  | Ast.Call ("f", [ Ast.Number 21.0 ]) -> ()
  | _ -> Alcotest.fail "main calls f"

let test_errors () =
  rejects "for $x in";
  rejects "<a>";
  rejects "<a></b>";
  rejects "1 +";
  rejects "$";
  rejects "count(";
  rejects "for $x in /a return $x trailing"

let test_all_twenty_parse () =
  List.iter
    (fun info ->
      match P.parse_query info.Xmark_core.Queries.text with
      | _ -> ()
      | exception e ->
          Alcotest.failf "Q%d failed to parse: %s" info.Xmark_core.Queries.number
            (P.describe_error info.Xmark_core.Queries.text e))
    Xmark_core.Queries.all

let test_describe_error () =
  match parse "1 +\n  $" with
  | exception e ->
      let msg = P.describe_error "1 +\n  $" e in
      Alcotest.(check bool) "mentions line 2" true
        (String.length msg > 0 &&
         (let rec has i = i + 6 <= String.length msg && (String.sub msg i 6 = "line 2" || has (i+1)) in
          has 0))
  | _ -> Alcotest.fail "should error"

let () =
  Alcotest.run "xquery-parser"
    [
      ( "expressions",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "relative path in predicate" `Quick test_relative_path_in_predicate;
          Alcotest.test_case "flwor" `Quick test_flwor;
          Alcotest.test_case "multi-var for" `Quick test_flwor_multi_for;
          Alcotest.test_case "quantified" `Quick test_quantified;
          Alcotest.test_case "if" `Quick test_if;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "hyphenated names" `Quick test_hyphenated_names;
          Alcotest.test_case "function calls" `Quick test_function_calls;
        ] );
      ( "constructors",
        [
          Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "boundary whitespace" `Quick test_boundary_ws_dropped;
        ] );
      ( "query level",
        [
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "prolog" `Quick test_prolog;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "all 20 benchmark queries parse" `Quick test_all_twenty_parse;
          Alcotest.test_case "error description" `Quick test_describe_error;
        ] );
    ]
