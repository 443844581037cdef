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
module Prng = Xmark_prng.Prng
module Property = Xmark_check.Property

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.002 ())

let store_m = lazy (MM.of_string ~level:`Full (Lazy.force doc))
let store_m_plain = lazy (MM.of_string ~level:`Plain (Lazy.force doc))
let store_a = lazy (HA.load_string (Lazy.force doc))
let store_b = lazy (SB.load_string (Lazy.force doc))

(* --- random query generation ------------------------------------------------ *)

let tags =
  [| "site"; "regions"; "europe"; "namerica"; "item"; "name"; "description"; "text";
    "keyword"; "people"; "person"; "emailaddress"; "homepage"; "profile"; "interest";
    "open_auctions"; "open_auction"; "bidder"; "increase"; "itemref"; "seller";
    "closed_auctions"; "closed_auction"; "price"; "buyer"; "annotation"; "category";
    "quantity"; "location"; "nonexistent_tag" |]

let attrs = [| "id"; "person"; "item"; "category"; "income"; "open_auction"; "featured" |]

let gen_step g =
  let sep = Prng.pick g [| "/"; "//" |] in
  let kind = Prng.int g 10 in
  if kind = 0 then "/@" ^ Prng.pick g attrs
  else if kind = 1 then sep ^ "*"
  else if kind = 2 then "/text()"
  else
    let tag = Prng.pick g tags in
    let pred = Prng.int g 10 in
    let p =
      if pred = 0 then "[1]"
      else if pred = 1 then "[last()]"
      else if pred = 2 then "[@id]"
      else ""
    in
    sep ^ tag ^ p

let gen_path g =
  let steps = List.init (Prng.int_in g 1 5) (fun _ -> gen_step g) in
  (* attribute and text() steps terminate a path: drop anything after *)
  let rec clean acc = function
    | [] -> List.rev acc
    | s :: rest ->
        if String.length s > 1 && (s.[1] = '@' || s = "/text()") then List.rev (s :: acc)
        else clean (s :: acc) rest
  in
  String.concat "" (clean [] steps)

let gen_query g =
  let path = gen_path g in
  match Prng.int g 5 with
  | 0 -> Printf.sprintf "count(%s)" path
  | 1 -> Printf.sprintf "for $x in %s return <r>{$x}</r>" path
  | 2 -> Printf.sprintf "%s" path
  | 3 -> Printf.sprintf "sum(%s)" path
  | _ -> Printf.sprintf "if (empty(%s)) then \"none\" else count(%s)" path path

(* Query text has no shrinker; the case seed replays a failure. *)
let query_property name gen prop =
  { Property.name; gen; shrink = (fun _ -> Seq.empty); prop; to_bytes = Fun.id; ext = "xq" }

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
  query_property "random queries agree across physical mappings" gen_query (fun q ->
      let reference = canon_m q in
      let clip s = if String.length s > 300 then String.sub s 0 300 else s in
      match
        List.find_opt
          (fun (_, canon) -> not (String.equal (canon q) reference))
          [ ("heap", canon_a); ("shredded", canon_b); ("mainmem-plain", canon_m_plain) ]
      with
      | None -> Ok "agree"
      | Some (which, canon) ->
          Error
            (Printf.sprintf "%s differs on %s:\nmainmem: %s\n%s: %s" which q (clip reference) which
               (clip (canon q))))

let prop_count_nonnegative =
  query_property "count() of random paths is a natural number" gen_path (fun path ->
      let s = Lazy.force store_m in
      match EvM.eval_string s (Printf.sprintf "count(%s)" path) with
      | [ EvM.Num f ] when Float.is_integer f && f >= 0.0 -> Ok "natural"
      | _ -> Error "count() is not a natural number")

let prop_idempotent_canonicalization =
  query_property "canonical result is stable across repeat evaluation" gen_query (fun q ->
      if String.equal (canon_m q) (canon_m q) then Ok "stable" else Error "canonical result changed")

(* --- optimizer differential: random join-shaped FLWORs ----------------------- *)

let gen_join_query g =
  let src =
    Prng.pick g
      [| "/site/people/person"; "/site/closed_auctions/closed_auction";
         "/site/open_auctions/open_auction"; "/site//item" |]
  in
  let key = Prng.pick g [| "@id"; "seller/@person"; "buyer/@person"; "itemref/@item"; "@featured" |] in
  let probe_src = Prng.pick g [| "/site/people/person"; "/site/closed_auctions/closed_auction" |] in
  let probe_key = Prng.pick g [| "@id"; "buyer/@person"; "seller/@person" |] in
  match Prng.int g 3 with
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
        probe_src src key probe_key

let gen_ineq_query g =
  let op = Prng.pick g [| ">"; "<"; ">="; "<=" |] in
  let scale = Prng.pick g [| "2"; "0.5"; "100" |] in
  Printf.sprintf
    "for $p in /site/people/person let $l := for $i in \
     /site/open_auctions/open_auction/initial where $p/profile/@income %s %s * \
     exactly-one($i/text()) return $i return <r>{count($l)}</r>"
    op scale

let canon_opt ~optimize q =
  let s = Lazy.force store_m in
  Canonical.of_nodes (EvM.result_to_dom s (EvM.eval_string ~optimize s q))

(* FLWORs in a path predicate whose SRC is relative to the predicate's
   context item: the join side differs per item, so it must not be built
   once and reused. *)
let gen_focus_join_query g =
  let ctx, rel, key, values =
    Prng.pick g
      [| ("/site/people/person", "watches/watch", "@open_auction",
          [| "open_auction8"; "open_auction16"; "open_auction0" |]);
         ("/site/closed_auctions/closed_auction", "buyer", "@person",
          [| "person26"; "person33"; "person15" |]);
         ("/site//item", "incategory", "@category", [| "category0"; "category1" |]);
         ("/site/open_auctions/open_auction", "bidder/personref", "@person",
          [| "person22"; "person9"; "person50" |]) |]
  in
  let value = Prng.pick g values in
  let cond =
    if Prng.bool g then Printf.sprintf "\"%s\" = $x/%s" value key
    else Printf.sprintf "$x/%s = \"%s\"" key value
  in
  Printf.sprintf "for $o in %s[count(for $x in %s where %s return $x) > 0] return $o" ctx rel
    cond

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
  match
    List.find_opt
      (fun (_, canon) -> not (String.equal (canon ast) (canon loop)))
      [ ("mainmem", canon_ast_m); ("heap", canon_ast_a); ("shredded", canon_ast_b) ]
  with
  | None -> Ok "agree"
  | Some (which, _) -> Error (Printf.sprintf "%s: hash join differs from nested loop on %s" which q)

let prop_optimizer_equijoins =
  query_property "optimizer preserves random equi-join queries" gen_join_query
    hash_join_matches_loop

let prop_focus_dependent_joins =
  query_property "joins over a relative source follow the context item" gen_focus_join_query
    hash_join_matches_loop

let prop_optimizer_ineq =
  query_property "optimizer preserves random inequality counts" gen_ineq_query (fun q ->
      if String.equal (canon_opt ~optimize:false q) (canon_opt ~optimize:true q) then Ok "agree"
      else Error "the optimizer changed the answer")

(* --- loop-invariant evaluation: random nested loops ----------------------- *)

(* Two nested for clauses, an optional let and order by, a where of one
   to three conjuncts, and a return: each part mixes subexpressions that
   read the loop variables with ones that read none of them. *)
let gen_hoist_query g =
  let outer =
    Prng.pick g
      [| "/site/people/person[position() < 12]";
         "/site/open_auctions/open_auction[position() < 12]" |]
  in
  let inner =
    Prng.pick g
      [| "/site/open_auctions/open_auction/initial"; "/site/closed_auctions/closed_auction";
         "$a/*"; "/site/nothing" |]
  in
  let with_let = Prng.bool g in
  let conds =
    Array.of_list
      ([ {|$a/@id != "none"|};
         "count($a/*) > count(/site/people/person) div 25";
         "exists($a/name) or count(/site/regions//item) > 1000";
         "count(/site/people/person) > 10";
         "not(empty(/site/regions//item[@featured]))";
         "count($c/*) >= count(/site/people/person[1]/*) - 3";
         "string($c) != string(/site/people/person[2]/name)";
         "($c/text(), 0)[1] > sum(/site/open_auctions/open_auction[1]/initial) div 2" ]
      @ if with_let then [ "count($b) > count(/site/nothing) + 1" ] else [])
  in
  let where = List.init (Prng.int_in g 1 3) (fun _ -> Prng.pick g conds) in
  let ret =
    Prng.pick g
      [| {|<r id="{$a/@id}">{count(/site/people/person)}</r>|};
         "($c/@*, /site/people/person[1]/name/text())";
         "<p>{count(for $x in /site/closed_auctions/closed_auction where "
         ^ "$x/seller/@person = $a/@id or count(/site/regions//item) < 5 return $x)}</p>";
         "<q>{name($c)}{count(/site/closed_auctions/closed_auction[price > 40])}</q>" |]
  in
  let order = Prng.pick g [| ""; "order by $a/@id descending, count(/site/people/person) " |] in
  Printf.sprintf "for $a in %s %sfor $c in %s where %s %sreturn %s" outer
    (if with_let then "let $b := $a/* " else "")
    inner (String.concat " and " where) order ret

(* An answer, or the error it raised. *)
let outcome canon ast = match canon ast with s -> Ok s | exception e -> Error (Printexc.to_string e)

let hoisting_matches_oracle q =
  let ast = Xmark_xquery.Parser.parse_query q and loop = Hoist_oracle.parse q in
  match
    List.find_opt
      (fun (_, canon) -> outcome canon ast <> outcome canon loop)
      [ ("mainmem", canon_ast_m); ("heap", canon_ast_a); ("shredded", canon_ast_b) ]
  with
  | None -> Ok "agree"
  | Some (which, _) ->
      Error (Printf.sprintf "%s: loop-invariant evaluation differs from the plain loop on %s" which q)

let prop_hoisting =
  query_property "loop-invariant evaluation preserves random nested loops" gen_hoist_query
    hoisting_matches_oracle

let case ~count ~seed p = Alcotest.test_case p.Property.name `Slow (Property.check ~count ~seed p)

let () =
  Alcotest.run "differential"
    [
      ( "properties",
        [ case ~count:150 ~seed:61L prop_backends_agree;
          case ~count:100 ~seed:62L prop_count_nonnegative;
          case ~count:50 ~seed:63L prop_idempotent_canonicalization;
          case ~count:80 ~seed:64L prop_optimizer_equijoins;
          case ~count:30 ~seed:65L prop_focus_dependent_joins;
          case ~count:40 ~seed:66L prop_optimizer_ineq;
          case ~count:25 ~seed:67L prop_hoisting ] );
    ]
