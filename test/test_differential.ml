(* Differential testing: random queries in the benchmark dialect are run
   against three different physical mappings (heap, shredded, main-memory)
   and must produce canonically identical results.  This is the paper's
   verification use case ("the benchmark document and the queries can aid
   in the verification of query processors") driven by generated
   queries. *)

module MM = Xmark_store.Backend_mainmem
module HA = Xmark_store.Backend_heap
module SB = Xmark_store.Backend_shredded
module EvM = Xmark_xquery.Eval.Make (MM)
module EvA = Xmark_xquery.Eval.Make (HA)
module EvB = Xmark_xquery.Eval.Make (SB)
module Canonical = Xmark_xml.Canonical

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.002 ())

let store_m = lazy (MM.of_string ~level:`Full (Lazy.force doc))
let store_m_plain = lazy (MM.of_string ~level:`Plain (Lazy.force doc))
let store_a = lazy (HA.load_string (Lazy.force doc))
let store_b = lazy (SB.load_string (Lazy.force doc))

(* --- random query generation ------------------------------------------------ *)

let tags =
  [ "site"; "regions"; "europe"; "namerica"; "item"; "name"; "description"; "text";
    "keyword"; "people"; "person"; "emailaddress"; "homepage"; "profile"; "interest";
    "open_auctions"; "open_auction"; "bidder"; "increase"; "itemref"; "seller";
    "closed_auctions"; "closed_auction"; "price"; "buyer"; "annotation"; "category";
    "quantity"; "location"; "nonexistent_tag" ]

let attrs = [ "id"; "person"; "item"; "category"; "income"; "open_auction"; "featured" ]

let gen_step =
  QCheck.Gen.(
    let* sep = oneofl [ "/"; "//" ] in
    let* kind = int_bound 9 in
    if kind = 0 then
      let* a = oneofl attrs in
      return ("/@" ^ a)
    else if kind = 1 then return (sep ^ "*")
    else if kind = 2 then return "/text()"
    else
      let* tag = oneofl tags in
      let* pred = int_bound 9 in
      let p =
        if pred = 0 then "[1]"
        else if pred = 1 then "[last()]"
        else if pred = 2 then "[@id]"
        else ""
      in
      return (sep ^ tag ^ p))

let gen_path =
  QCheck.Gen.(
    let* n = int_range 1 5 in
    let* steps = list_size (return n) gen_step in
    (* attribute and text() steps terminate a path: drop anything after *)
    let rec clean acc = function
      | [] -> List.rev acc
      | s :: rest ->
          if String.length s > 1 && (s.[1] = '@' || s = "/text()") then List.rev (s :: acc)
          else clean (s :: acc) rest
    in
    return (String.concat "" (clean [] steps)))

let gen_query =
  QCheck.Gen.(
    let* path = gen_path in
    let* wrapper = int_bound 4 in
    return
      (match wrapper with
      | 0 -> Printf.sprintf "count(%s)" path
      | 1 -> Printf.sprintf "for $x in %s return <r>{$x}</r>" path
      | 2 -> Printf.sprintf "%s" path
      | 3 -> Printf.sprintf "sum(%s)" path
      | _ -> Printf.sprintf "if (empty(%s)) then \"none\" else count(%s)" path path))

let arb_query = QCheck.make ~print:Fun.id gen_query

(* --- the property ------------------------------------------------------------- *)

let canon_m q =
  let s = Lazy.force store_m in
  Canonical.of_nodes (EvM.result_to_dom s (EvM.eval_string s q))

let canon_m_plain q =
  let s = Lazy.force store_m_plain in
  Canonical.of_nodes (EvM.result_to_dom s (EvM.eval_string s q))

let canon_a q =
  let s = Lazy.force store_a in
  Canonical.of_nodes (EvA.result_to_dom s (EvA.eval_string s q))

let canon_b q =
  let s = Lazy.force store_b in
  Canonical.of_nodes (EvB.result_to_dom s (EvB.eval_string s q))

let prop_backends_agree =
  QCheck.Test.make ~name:"random queries agree across physical mappings" ~count:150 arb_query
    (fun q ->
      let reference = canon_m q in
      let ok which got =
        if String.equal got reference then true
        else
          QCheck.Test.fail_reportf "%s differs on %s:\nmainmem: %s\n%s: %s" which q
            (if String.length reference > 300 then String.sub reference 0 300 else reference)
            which
            (if String.length got > 300 then String.sub got 0 300 else got)
      in
      ok "heap" (canon_a q) && ok "shredded" (canon_b q) && ok "mainmem-plain" (canon_m_plain q))

let prop_count_nonnegative =
  QCheck.Test.make ~name:"count() of random paths is a natural number" ~count:100
    (QCheck.make ~print:Fun.id gen_path) (fun path ->
      let s = Lazy.force store_m in
      match EvM.eval_string s (Printf.sprintf "count(%s)" path) with
      | [ EvM.Num f ] -> Float.is_integer f && f >= 0.0
      | _ -> false)

let prop_idempotent_canonicalization =
  QCheck.Test.make ~name:"canonical result is stable across repeat evaluation" ~count:50 arb_query
    (fun q -> String.equal (canon_m q) (canon_m q))

(* --- optimizer differential: random join-shaped FLWORs ----------------------- *)

let gen_join_query =
  QCheck.Gen.(
    let* src = oneofl [ "/site/people/person"; "/site/closed_auctions/closed_auction";
                        "/site/open_auctions/open_auction"; "/site//item" ] in
    let* key = oneofl [ "@id"; "seller/@person"; "buyer/@person"; "itemref/@item"; "@featured" ] in
    let* probe_src = oneofl [ "/site/people/person"; "/site/closed_auctions/closed_auction" ] in
    let* probe_key = oneofl [ "@id"; "buyer/@person"; "seller/@person" ] in
    let* shape = int_bound 2 in
    return
      (match shape with
      | 0 ->
          Printf.sprintf
            "for $o in %s return <r>{count(for $x in %s where $x/%s = $o/%s return $x)}</r>"
            probe_src src key probe_key
      | 1 ->
          (* whole nodes, in the order the join yields them *)
          Printf.sprintf
            "for $o in %s return <r>{for $x in %s where $o/%s = $x/%s return $x}</r>"
            probe_src src probe_key key
      | _ ->
          Printf.sprintf
            "for $o in %s let $l := for $x in %s where $x/%s = $o/%s return $x return <r>{count($l)}</r>"
            probe_src src key probe_key))

let gen_ineq_query =
  QCheck.Gen.(
    let* op = oneofl [ ">"; "<"; ">="; "<=" ] in
    let* scale = oneofl [ "2"; "0.5"; "100" ] in
    return
      (Printf.sprintf
         "for $p in /site/people/person let $l := for $i in \
          /site/open_auctions/open_auction/initial where $p/profile/@income %s %s * \
          exactly-one($i/text()) return $i return <r>{count($l)}</r>"
         op scale))

let canon_opt ~optimize q =
  let s = Lazy.force store_m in
  Canonical.of_nodes (EvM.result_to_dom s (EvM.eval_string ~optimize s q))

(* FLWORs in a path predicate whose SRC is relative to the predicate's
   context item: the join side differs per item, so it must not be built
   once and reused. *)
let gen_focus_join_query =
  QCheck.Gen.(
    let* ctx, rel, key, values =
      oneofl
        [ ("/site/people/person", "watches/watch", "@open_auction",
           [ "open_auction8"; "open_auction16"; "open_auction0" ]);
          ("/site/closed_auctions/closed_auction", "buyer", "@person",
           [ "person26"; "person33"; "person15" ]);
          ("/site//item", "incategory", "@category", [ "category0"; "category1" ]);
          ("/site/open_auctions/open_auction", "bidder/personref", "@person",
           [ "person22"; "person9"; "person50" ]) ]
    in
    let* value = oneofl values in
    let* flipped = bool in
    let cond =
      if flipped then Printf.sprintf "\"%s\" = $x/%s" value key
      else Printf.sprintf "$x/%s = \"%s\"" key value
    in
    return
      (Printf.sprintf "for $o in %s[count(for $x in %s where %s return $x) > 0] return $o" ctx
         rel cond))

(* canonical answers of a parsed query on the three stores *)
let canon_ast_m ast =
  let m = Lazy.force store_m in
  Canonical.of_nodes (EvM.result_to_dom m (EvM.run (EvM.compile m ast)))

let canon_ast_a ast =
  let a = Lazy.force store_a in
  Canonical.of_nodes (EvA.result_to_dom a (EvA.run (EvA.compile a ast)))

let canon_ast_b ast =
  let b = Lazy.force store_b in
  Canonical.of_nodes (EvB.result_to_dom b (EvB.run (EvB.compile b ast)))

(* Every backend runs equi-joins as hash joins; the oracle is the same
   query with its [where] wrapped in [boolean(...)], a nested loop. *)
let hash_join_matches_loop q =
  let ast = Xmark_xquery.Parser.parse_query q and loop = Join_oracle.parse q in
  let agree which hashed looped =
    String.equal hashed looped
    || QCheck.Test.fail_reportf "%s: hash join differs from nested loop on %s" which q
  in
  agree "mainmem" (canon_ast_m ast) (canon_ast_m loop)
  && agree "heap" (canon_ast_a ast) (canon_ast_a loop)
  && agree "shredded" (canon_ast_b ast) (canon_ast_b loop)

let prop_optimizer_equijoins =
  QCheck.Test.make ~name:"optimizer preserves random equi-join queries" ~count:80
    (QCheck.make ~print:Fun.id gen_join_query)
    hash_join_matches_loop

let prop_focus_dependent_joins =
  QCheck.Test.make ~name:"joins over a relative source follow the context item" ~count:30
    (QCheck.make ~print:Fun.id gen_focus_join_query)
    hash_join_matches_loop

let prop_optimizer_ineq =
  QCheck.Test.make ~name:"optimizer preserves random inequality counts" ~count:40
    (QCheck.make ~print:Fun.id gen_ineq_query)
    (fun q -> String.equal (canon_opt ~optimize:false q) (canon_opt ~optimize:true q))

(* --- loop-invariant evaluation: random nested loops ----------------------- *)

(* Two nested for clauses, an optional let and order by, a where of one
   to three conjuncts, and a return: each part mixes subexpressions that
   read the loop variables with ones that read none of them. *)
let gen_hoist_query =
  QCheck.Gen.(
    let* outer =
      oneofl
        [ "/site/people/person[position() < 12]";
          "/site/open_auctions/open_auction[position() < 12]" ]
    in
    let* inner =
      oneofl
        [ "/site/open_auctions/open_auction/initial"; "/site/closed_auctions/closed_auction";
          "$a/*"; "/site/nothing" ]
    in
    let* with_let = bool in
    let conds =
      [ {|$a/@id != "none"|};
        "count($a/*) > count(/site/people/person) div 25";
        "exists($a/name) or count(/site/regions//item) > 1000";
        "count(/site/people/person) > 10";
        "not(empty(/site/regions//item[@featured]))";
        "count($c/*) >= count(/site/people/person[1]/*) - 3";
        "string($c) != string(/site/people/person[2]/name)";
        "($c/text(), 0)[1] > sum(/site/open_auctions/open_auction[1]/initial) div 2" ]
      @ if with_let then [ "count($b) > count(/site/nothing) + 1" ] else []
    in
    let* where = list_size (int_range 1 3) (oneofl conds) in
    let* ret =
      oneofl
        [ {|<r id="{$a/@id}">{count(/site/people/person)}</r>|};
          "($c/@*, /site/people/person[1]/name/text())";
          "<p>{count(for $x in /site/closed_auctions/closed_auction where "
          ^ "$x/seller/@person = $a/@id or count(/site/regions//item) < 5 return $x)}</p>";
          "<q>{name($c)}{count(/site/closed_auctions/closed_auction[price > 40])}</q>" ]
    in
    let* order = oneofl [ ""; "order by $a/@id descending, count(/site/people/person) " ] in
    return
      (Printf.sprintf "for $a in %s %sfor $c in %s where %s %sreturn %s" outer
         (if with_let then "let $b := $a/* " else "")
         inner (String.concat " and " where) order ret))

(* An answer, or the error it raised. *)
let outcome canon ast = match canon ast with s -> Ok s | exception e -> Error (Printexc.to_string e)

let hoisting_matches_oracle q =
  let ast = Xmark_xquery.Parser.parse_query q and loop = Hoist_oracle.parse q in
  let agree which hoisted looped =
    hoisted = looped
    || QCheck.Test.fail_reportf "%s: loop-invariant evaluation differs from the plain loop on %s"
         which q
  in
  agree "mainmem" (outcome canon_ast_m ast) (outcome canon_ast_m loop)
  && agree "heap" (outcome canon_ast_a ast) (outcome canon_ast_a loop)
  && agree "shredded" (outcome canon_ast_b ast) (outcome canon_ast_b loop)

let prop_hoisting =
  QCheck.Test.make ~name:"loop-invariant evaluation preserves random nested loops" ~count:25
    (QCheck.make ~print:Fun.id gen_hoist_query)
    hoisting_matches_oracle

let () =
  Alcotest.run "differential"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_backends_agree; prop_count_nonnegative; prop_idempotent_canonicalization;
            prop_optimizer_equijoins; prop_focus_dependent_joins; prop_optimizer_ineq;
            prop_hoisting ] );
    ]
