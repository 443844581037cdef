(* Storage backends: each physical mapping must expose exactly the same
   logical document.  We compare every navigation operation of Systems A
   (heap) and B (shredded) against the DOM of System D, node by node. *)

module Dom = Xmark_xml.Dom
module MM = Xmark_store.Backend_mainmem
module HA = Xmark_store.Backend_heap
module SB = Xmark_store.Backend_shredded
module SC = Xmark_store.Backend_schema
module R = Xmark_relational

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.002 ())

let dom = lazy (Xmark_xml.Sax.parse_string (Lazy.force doc))

(* Walk the DOM and a backend in lockstep. *)
module Lockstep (S : Xmark_xquery.Store_sig.S) = struct
  let rec walk store (d : Dom.node) (n : S.node) =
    (match (d.Dom.desc, S.kind store n) with
    | Dom.Text s, `Text -> Alcotest.(check string) "text" s (S.text store n)
    | Dom.Element e, `Element ->
        Alcotest.(check string) "tag"
          (Xmark_xml.Symbol.to_string e.Dom.name)
          (Xmark_xml.Symbol.to_string (S.name store n));
        Alcotest.(check (list (pair string string))) "attrs"
          (List.sort compare e.Dom.attrs)
          (List.sort compare (S.attributes store n))
    | Dom.Text _, `Element -> Alcotest.fail "kind mismatch: expected text"
    | Dom.Element _, `Text -> Alcotest.fail "kind mismatch: expected element");
    let dkids = Dom.children d and skids = S.children store n in
    Alcotest.(check int)
      (Printf.sprintf "child count of %s" (Dom.name d))
      (List.length dkids) (List.length skids);
    List.iter2
      (fun dk sk ->
        (match S.parent store sk with
        | Some p -> Alcotest.(check int) "parent order" (S.order store n) (S.order store p)
        | None -> Alcotest.fail "child without parent");
        walk store dk sk)
      dkids skids

  let check_orders_strictly_increase store n =
    let last = ref (-1) in
    let rec go n =
      let o = S.order store n in
      Alcotest.(check bool) "order strictly increases in document order" true (o > !last);
      last := o;
      List.iter go (S.children store n)
    in
    go n
end

module LA = Lockstep (HA)
module LB = Lockstep (SB)
module LM = Lockstep (MM)

let test_heap_lockstep () =
  let s = HA.load_string (Lazy.force doc) in
  LA.walk s (Lazy.force dom) (HA.root s);
  LA.check_orders_strictly_increase s (HA.root s)

let test_shredded_lockstep () =
  let s = SB.load_string (Lazy.force doc) in
  LB.walk s (Lazy.force dom) (SB.root s);
  LB.check_orders_strictly_increase s (SB.root s)

let test_mainmem_lockstep () =
  let s = MM.of_string ~level:`Full (Lazy.force doc) in
  LM.walk s (Lazy.force dom) (MM.root s)

let test_string_values_agree () =
  let text = Lazy.force doc in
  let a = HA.load_string text and b = SB.load_string text in
  let m = MM.of_string ~level:`Plain text in
  Alcotest.(check string) "heap root string value" (MM.string_value m (MM.root m))
    (HA.string_value a (HA.root a));
  Alcotest.(check string) "shredded root string value" (MM.string_value m (MM.root m))
    (SB.string_value b (SB.root b))

let test_id_lookup () =
  let text = Lazy.force doc in
  let a = HA.load_string text and b = SB.load_string text in
  let m = MM.of_string ~level:`Full text in
  let check_lookup name lookup getname =
    match lookup "person0" with
    | Some (Some n) -> Alcotest.(check string) (name ^ " finds person") "person" (getname n)
    | Some None -> Alcotest.fail (name ^ ": person0 not found")
    | None -> Alcotest.fail (name ^ ": no id index")
  in
  check_lookup "heap" (HA.id_lookup a) (fun n -> Xmark_xml.Symbol.to_string (HA.name a n));
  check_lookup "shredded" (SB.id_lookup b) (fun n -> Xmark_xml.Symbol.to_string (SB.name b n));
  check_lookup "mainmem" (MM.id_lookup m) (fun n -> Xmark_xml.Symbol.to_string (MM.name m n));
  (match HA.id_lookup a "missing-id" with
  | Some None -> ()
  | _ -> Alcotest.fail "heap miss should be Some None");
  (* plain mainmem has no index at all *)
  let plain = MM.of_string ~level:`Plain text in
  Alcotest.(check bool) "plain has no id index" true (MM.id_lookup plain "person0" = None)

let test_tag_extents () =
  let text = Lazy.force doc in
  let m = MM.of_string ~level:`Full text in
  let d = Lazy.force dom in
  let expected tag = List.length (Dom.descendants_named d tag) in
  List.iter
    (fun tag ->
      match (MM.tag_nodes m (Xmark_xml.Symbol.intern tag), MM.tag_count m (Xmark_xml.Symbol.intern tag)) with
      | Some nodes, Some count ->
          Alcotest.(check int) (tag ^ " extent size") (expected tag) (List.length nodes);
          Alcotest.(check int) (tag ^ " count") (expected tag) count;
          (* document order *)
          let orders = List.map (MM.order m) nodes in
          Alcotest.(check bool) "sorted" true (List.sort compare orders = orders)
      | _ -> Alcotest.fail (tag ^ ": full level should have extents"))
    [ "item"; "person"; "keyword"; "bidder" ];
  let b = SB.load_string text in
  List.iter
    (fun tag ->
      match SB.tag_count b (Xmark_xml.Symbol.intern tag) with
      | Some c -> Alcotest.(check int) ("shredded " ^ tag) (expected tag) c
      | None -> Alcotest.fail "shredded always knows tag counts")
    [ "item"; "person" ]

(* Keys are gapped, so nothing may assume [root high = node_count]:
   check the interval contract itself.  Every key lies in the root's
   interval, and for sampled pairs [d] is inside [n]'s interval iff [d]
   is a descendant-or-self of [n] — ancestry taken from a walk down the
   children, and [parent] checked against it. *)
let check_intervals m =
  let interval n =
    match MM.subtree_interval m n with
    | Some i -> i
    | None -> Alcotest.fail "full level should have intervals"
  in
  let all = ref [] in
  let rec walk anc n =
    all := (n, anc) :: !all;
    List.iter (walk (n :: anc)) (MM.children m n)
  in
  walk [] (MM.root m);
  let nodes = Array.of_list !all in
  let rlo, rhi = interval (MM.root m) in
  Array.iter
    (fun (n, anc) ->
      let o = MM.order m n in
      if not (rlo <= o && o < rhi) then Alcotest.failf "key %d outside the root [%d, %d)" o rlo rhi;
      match (anc, MM.parent m n) with
      | p :: _, Some p' when p == p' -> ()
      | [], None -> ()
      | _ -> Alcotest.failf "parent of the node keyed %d is not the node above it %s %s" o (Dom.name n) (match MM.parent m n with Some p -> Dom.name p ^ string_of_int p.Dom.order | None -> "none"))
    nodes;
  let rng = Xmark_prng.Prng.create ~seed:3L () in
  let pick a = a.(Xmark_prng.Prng.int rng (Array.length a)) in
  for _ = 1 to 5000 do
    let d, anc = pick nodes in
    (* half the pairs draw [n] among [d]'s ancestors *)
    let n = if anc <> [] && Xmark_prng.Prng.int rng 2 = 0 then pick (Array.of_list anc) else fst (pick nodes) in
    let lo, hi = interval n in
    let o = MM.order m d in
    Alcotest.(check bool) "inside the interval iff descendant-or-self"
      (n == d || List.memq n anc) (lo <= o && o < hi)
  done

let test_subtree_intervals () =
  check_intervals (MM.of_string ~level:`Full (Lazy.force doc));
  (* and on a store patched by path-copying updates *)
  let module U = Xmark_store.Updates in
  let s = U.of_string (Lazy.force doc) in
  ignore (U.store s);
  ignore (U.register_person s ~name:"N" ~email:"mailto:n@example.org");
  U.place_bid s ~auction:"open_auction0" ~person:"person1" ~increase:1.5 ~date:"d" ~time:"t";
  ignore (U.store s);
  U.place_bid s ~auction:"open_auction0" ~person:"person2" ~increase:2.5 ~date:"d" ~time:"t";
  U.close_auction s ~auction:"open_auction1" ~date:"d" |> ignore;
  check_intervals (U.store s)

let test_sizes_positive () =
  let text = Lazy.force doc in
  let a = HA.load_string text and b = SB.load_string text in
  let m = MM.of_string ~level:`Full text in
  let c = SC.load_string text in
  List.iter
    (fun (name, v) -> Alcotest.(check bool) (name ^ " size > 0") true (v > 0))
    [
      ("heap", HA.size_bytes a); ("shredded", SB.size_bytes b); ("mainmem", MM.size_bytes m);
      ("schema", SC.size_bytes c);
    ];
  Alcotest.(check int) "node counts agree" (HA.node_count a) (SB.node_count b)

let test_schema_tables () =
  let c = SC.load_string (Lazy.force doc) in
  let d = Lazy.force dom in
  let expected tag = List.length (Dom.descendants_named d tag) in
  List.iter
    (fun (table, tag) ->
      Alcotest.(check int) (table ^ " row count") (expected tag)
        (R.Table.row_count (SC.table c table)))
    [
      ("person", "person"); ("item", "item"); ("open_auction", "open_auction");
      ("closed_auction", "closed_auction"); ("category", "category"); ("bidder", "bidder");
      ("interest", "interest"); ("watch", "watch"); ("incategory", "incategory");
      ("edge", "edge");
    ]

let test_schema_indexes () =
  let c = SC.load_string (Lazy.force doc) in
  let idx = SC.index c ~table:"person" ~column:"id" in
  (match R.Index.unique idx (R.Value.Str "person0") with
  | Some _ -> ()
  | None -> Alcotest.fail "person0 missing from schema index");
  match SC.index c ~table:"person" ~column:"nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown index should raise"

let test_catalog_metadata_counting () =
  let b = SB.load_string (Lazy.force doc) in
  let cat = SB.catalog b in
  R.Catalog.reset_counters cat;
  ignore (SB.tag_count b (Xmark_xml.Symbol.intern "person"));
  let after_b = R.Catalog.metadata_accesses cat in
  Alcotest.(check bool) "fragmenting catalog scans many entries" true (after_b > 10);
  let a = HA.load_string (Lazy.force doc) in
  let cat_a = HA.catalog a in
  R.Catalog.reset_counters cat_a;
  ignore (HA.tag_count a (Xmark_xml.Symbol.intern "person"));
  Alcotest.(check bool) "heap catalog touches few entries" true
    (R.Catalog.metadata_accesses cat_a <= 2)

let test_descriptions_distinct () =
  let text = Lazy.force doc in
  let d = MM.of_string ~level:`Full text in
  let e = MM.of_string ~level:`Id_only text in
  let f = MM.of_string ~level:`Plain text in
  let names =
    [ MM.description d; MM.description e; MM.description f ]
  in
  Alcotest.(check int) "three distinct" 3 (List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "store"
    [
      ( "lockstep",
        [
          Alcotest.test_case "heap = DOM" `Quick test_heap_lockstep;
          Alcotest.test_case "shredded = DOM" `Quick test_shredded_lockstep;
          Alcotest.test_case "mainmem = DOM" `Quick test_mainmem_lockstep;
          Alcotest.test_case "string values agree" `Quick test_string_values_agree;
        ] );
      ( "accelerators",
        [
          Alcotest.test_case "id lookup" `Quick test_id_lookup;
          Alcotest.test_case "tag extents" `Quick test_tag_extents;
          Alcotest.test_case "subtree intervals" `Quick test_subtree_intervals;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "sizes positive" `Quick test_sizes_positive;
          Alcotest.test_case "schema tables" `Quick test_schema_tables;
          Alcotest.test_case "schema indexes" `Quick test_schema_indexes;
          Alcotest.test_case "metadata counting" `Quick test_catalog_metadata_counting;
          Alcotest.test_case "descriptions distinct" `Quick test_descriptions_distinct;
        ] );
    ]
