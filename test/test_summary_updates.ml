module Dom = Xmark_xml.Dom
module MM = Xmark_store.Backend_mainmem
module Summary = Xmark_store.Summary
module Updates = Xmark_store.Updates
module E = Xmark_xquery.Eval.Make (MM)

let factor = 0.003

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor ())

let dom () = Xmark_xml.Sax.parse_string (Lazy.force doc)

(* --- structural summary (DataGuide) ----------------------------------------- *)

let summary = lazy (Summary.build (dom ()))

let counts = Xmark_xmlgen.Profile.counts factor

let test_summary_root () =
  let s = Lazy.force summary in
  Alcotest.(check int) "one site" 1 (Summary.cardinality s [ "site" ]);
  Alcotest.(check bool) "root exists" true (Summary.exists s [ "site" ]);
  Alcotest.(check bool) "wrong root" false (Summary.exists s [ "nope" ])

let test_summary_cardinalities () =
  let s = Lazy.force summary in
  Alcotest.(check int) "persons" counts.Xmark_xmlgen.Profile.persons
    (Summary.cardinality s [ "site"; "people"; "person" ]);
  Alcotest.(check int) "open auctions" counts.Xmark_xmlgen.Profile.open_auctions
    (Summary.cardinality s [ "site"; "open_auctions"; "open_auction" ]);
  Alcotest.(check int) "typo path" 0 (Summary.cardinality s [ "site"; "people"; "persn" ])

let test_summary_descendants () =
  let s = Lazy.force summary in
  let d = dom () in
  Alcotest.(check int) "//item via summary"
    (List.length (Dom.descendants_named d "item"))
    (Summary.descendant_cardinality s "item");
  Alcotest.(check int) "//keyword via summary"
    (List.length (Dom.descendants_named d "keyword"))
    (Summary.descendant_cardinality s "keyword")

let test_summary_extent_order () =
  let s = Lazy.force summary in
  let extent = Summary.extent s [ "site"; "people"; "person" ] in
  Alcotest.(check int) "extent size" counts.Xmark_xmlgen.Profile.persons (List.length extent);
  let orders = List.map (fun (n : Dom.node) -> n.Dom.order) extent in
  Alcotest.(check bool) "document order" true (List.sort compare orders = orders)

let test_summary_paths_consistent () =
  let s = Lazy.force summary in
  let all = Summary.paths s in
  Alcotest.(check int) "path_count = |paths|" (Summary.path_count s) (List.length all);
  (* every listed path resolves to its own cardinality *)
  List.iter
    (fun (path, n) -> Alcotest.(check int) (String.concat "/" path) n (Summary.cardinality s path))
    all;
  (* the deep Q15 path is a label path of the document *)
  Alcotest.(check bool) "Q15 path known" true
    (Summary.exists s
       [ "site"; "closed_auctions"; "closed_auction"; "annotation"; "description"; "parlist";
         "listitem" ])

let test_summary_pp () =
  let rendered = Format.asprintf "%a" Summary.pp (Lazy.force summary) in
  Alcotest.(check bool) "mentions site" true (String.length rendered > 100);
  Alcotest.(check bool) "starts at root" true (String.sub rendered 0 4 = "site")

(* --- updates ------------------------------------------------------------------ *)

let fresh_session () = Updates.of_string (Lazy.force doc)

let query session q = E.eval_string (Updates.store session) q

let count_of session q =
  match query session q with
  | [ E.Num f ] -> int_of_float f
  | _ -> Alcotest.fail ("not a count: " ^ q)

let test_register_person () =
  let s = fresh_session () in
  let before = count_of s "count(/site/people/person)" in
  let id = Updates.register_person s ~name:"Ada Lovelace" ~email:"mailto:ada@example.org" in
  Alcotest.(check bool) "pending after mutation" true (Updates.pending s);
  Alcotest.(check int) "one more person" (before + 1) (count_of s "count(/site/people/person)");
  let name =
    query s (Printf.sprintf {|/site/people/person[@id = "%s"]/name/text()|} id)
  in
  (match name with
  | [ E.N n ] -> Alcotest.(check string) "queryable by id" "Ada Lovelace"
                   (MM.string_value (Updates.store s) n)
  | _ -> Alcotest.fail "new person not found by Q1-style lookup");
  let id2 = Updates.register_person s ~name:"B" ~email:"mailto:b@example.org" in
  Alcotest.(check bool) "fresh ids distinct" true (id <> id2)

let first_auction_id s =
  match query s "/site/open_auctions/open_auction[1]/@id" with
  | [ E.A a ] -> a.E.avalue
  | _ -> Alcotest.fail "no open auction"

let test_place_bid () =
  let s = fresh_session () in
  let auction = first_auction_id s in
  let q_bidders =
    Printf.sprintf {|count(/site/open_auctions/open_auction[@id = "%s"]/bidder)|} auction
  in
  let q_current =
    Printf.sprintf {|number(/site/open_auctions/open_auction[@id = "%s"]/current)|} auction
  in
  let bidders_before = count_of s q_bidders in
  let current_before =
    match query s q_current with [ E.Num f ] -> f | _ -> Alcotest.fail "no current"
  in
  Updates.place_bid s ~auction ~person:"person0" ~increase:7.5 ~date:"01/07/2026" ~time:"12:00:00";
  Alcotest.(check int) "one more bidder" (bidders_before + 1) (count_of s q_bidders);
  (match query s q_current with
  | [ E.Num f ] ->
      Alcotest.(check bool) "current raised by increase" true
        (Float.abs (f -. (current_before +. 7.5)) < 0.011)
  | _ -> Alcotest.fail "no current after bid");
  (* DTD order preserved: bidder sits before current *)
  let last_bidder_before_current =
    query s
      (Printf.sprintf
         {|boolean(/site/open_auctions/open_auction[@id = "%s"]/bidder[last()]
                   << /site/open_auctions/open_auction[@id = "%s"]/current)|}
         auction auction)
  in
  Alcotest.(check bool) "bidder precedes current" true
    (last_bidder_before_current = [ E.Bool true ])

let test_place_bid_errors () =
  let s = fresh_session () in
  let auction = first_auction_id s in
  let expect_error f =
    match f () with
    | exception Updates.Update_error _ -> ()
    | _ -> Alcotest.fail "expected Update_error"
  in
  expect_error (fun () ->
      Updates.place_bid s ~auction:"open_auction999999" ~person:"person0" ~increase:1.0
        ~date:"d" ~time:"t");
  expect_error (fun () ->
      Updates.place_bid s ~auction ~person:"person999999" ~increase:1.0 ~date:"d" ~time:"t");
  expect_error (fun () ->
      Updates.place_bid s ~auction ~person:"person0" ~increase:(-1.0) ~date:"d" ~time:"t")

let test_close_auction () =
  let s = fresh_session () in
  let auction = first_auction_id s in
  Updates.place_bid s ~auction ~person:"person1" ~increase:3.0 ~date:"01/07/2026" ~time:"09:00:00";
  let open_before = count_of s "count(/site/open_auctions/open_auction)" in
  let closed_before = count_of s "count(/site/closed_auctions/closed_auction)" in
  let final_price =
    match
      query s (Printf.sprintf {|number(/site/open_auctions/open_auction[@id = "%s"]/current)|} auction)
    with
    | [ E.Num f ] -> f
    | _ -> Alcotest.fail "no current"
  in
  Updates.close_auction s ~auction ~date:"02/07/2026";
  Alcotest.(check int) "open -1" (open_before - 1)
    (count_of s "count(/site/open_auctions/open_auction)");
  Alcotest.(check int) "closed +1" (closed_before + 1)
    (count_of s "count(/site/closed_auctions/closed_auction)");
  Alcotest.(check int) "auction gone from open" 0
    (count_of s (Printf.sprintf {|count(/site/open_auctions/open_auction[@id = "%s"])|} auction));
  (* the last bidder became the buyer, current became price *)
  (match query s "/site/closed_auctions/closed_auction[last()]/buyer/@person" with
  | [ E.A a ] -> Alcotest.(check string) "buyer is last bidder" "person1" a.E.avalue
  | _ -> Alcotest.fail "no buyer");
  match query s "number(/site/closed_auctions/closed_auction[last()]/price)" with
  | [ E.Num f ] ->
      Alcotest.(check bool) "price = final current" true (Float.abs (f -. final_price) < 0.011)
  | _ -> Alcotest.fail "no price"

let test_close_without_bids () =
  let s = fresh_session () in
  (* find an auction with no bidders *)
  match
    query s {|/site/open_auctions/open_auction[empty(bidder)][1]/@id|}
  with
  | [ E.A a ] -> (
      match Updates.close_auction s ~auction:a.E.avalue ~date:"d" with
      | exception Updates.Update_error _ -> ()
      | () -> Alcotest.fail "closing a bid-less auction should fail")
  | _ -> ()  (* every auction has bids at this factor: nothing to assert *)

let test_updated_document_still_agrees_across_backends () =
  (* after a batch of updates, all seven systems still agree on the
     benchmark queries over the mutated document *)
  let s = fresh_session () in
  let auction = first_auction_id s in
  ignore (Updates.register_person s ~name:"New User" ~email:"mailto:new@example.org");
  Updates.place_bid s ~auction ~person:"person0" ~increase:4.5 ~date:"01/07/2026" ~time:"10:00:00";
  Updates.close_auction s ~auction ~date:"02/07/2026";
  let mutated = Xmark_xml.Serialize.to_string (MM.dom_root (Updates.store s)) in
  let stores =
    List.map
      (fun sys -> (Xmark_core.Runner.load ~source:(`Text mutated) sys).Xmark_core.Runner.store)
      Xmark_core.Runner.all_systems
  in
  List.iter
    (fun q ->
      let canons =
        List.map (fun st -> Xmark_core.Runner.canonical (Xmark_core.Runner.run st q)) stores
      in
      match canons with
      | first :: rest ->
          List.iter (fun c -> Alcotest.(check string) (Printf.sprintf "Q%d" q) first c) rest
      | [] -> ())
    [ 1; 2; 5; 8; 17; 20 ]

let test_summary_reflects_updates () =
  let s = fresh_session () in
  let before =
    Summary.cardinality (Summary.build (MM.dom_root (Updates.store s))) [ "site"; "people"; "person" ]
  in
  ignore (Updates.register_person s ~name:"X" ~email:"mailto:x@example.org");
  let after =
    Summary.cardinality (Summary.build (MM.dom_root (Updates.store s))) [ "site"; "people"; "person" ]
  in
  Alcotest.(check int) "summary sees the new person" (before + 1) after

(* --- incremental publish: patched stores against rebuilds --------------------- *)

module Runner = Xmark_core.Runner
module Prng = Xmark_prng.Prng
module Stats = Xmark_stats

let doc_01 = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.01 ())

(* parent-sensitive probes: shared children name a replaced parent *)
let probes =
  [ "//bidder/.."; "//current/parent::open_auction"; {|/site/people/person[@id="person0"]|} ]

let answers ?(queries = List.init 20 succ) store =
  let s = Runner.adopt_mainmem store in
  let digest o = Digest.to_hex (Digest.string (Runner.canonical o)) in
  List.map (fun q -> Printf.sprintf "Q%d %s" q (digest (Runner.run_session s q))) queries
  @ List.map (fun q -> q ^ " " ^ digest (Runner.run_text_session s q)) probes
  @ [ Printf.sprintf "nodes %d bytes %d" (MM.node_count store) (MM.size_bytes store) ]

let rebuilt s = MM.create ~level:(Updates.level s) (Dom.deep_copy (Updates.root s))

let with_stats f =
  let was = Stats.enabled () in
  Stats.enable ();
  Fun.protect ~finally:(fun () -> Stats.set_enabled was) f

(* One seeded update: bids dominate, ids are drawn a little past the
   document's id space so some updates are typed rejections. *)
let random_update rng s i =
  let auction () = Printf.sprintf "open_auction%d" (Prng.int rng 130) in
  let person () = Printf.sprintf "person%d" (Prng.int rng 270) in
  match Prng.int rng 10 with
  | 0 | 1 ->
      ignore
        (Updates.register_person s ~name:(Printf.sprintf "P %d" i)
           ~email:(Printf.sprintf "mailto:p%d@example.org" i))
  | 2 -> Updates.close_auction s ~auction:(auction ()) ~date:"07/31/2002"
  | _ ->
      Updates.place_bid s ~auction:(auction ()) ~person:(person ())
        ~increase:(float_of_int (1 + Prng.int rng 40) /. 2.0) ~date:"07/31/2002" ~time:"12:00:00"

(* System D checks Q1-Q20 after every update.  E and F, whose patched
   state is the ID overlay, the parent map and the counts, check the
   probes and five cheap queries after every update and all twenty every
   25th: without extents their joins Q8-Q12 take ~100 ms each here. *)
let epoch_differential level () =
  let s = Updates.of_string ~level (Lazy.force doc_01) in
  let pinned = Updates.store s in
  let at_start = answers pinned in
  let rng = Prng.create ~seed:14L () in
  let rejected = ref 0 in
  with_stats @@ fun () ->
  let relabels = Stats.total "publish_relabels" in
  for i = 1 to 200 do
    (try random_update rng s i with Updates.Update_error _ -> incr rejected);
    let queries =
      if level = `Full || i mod 25 = 0 then List.init 20 succ else [ 1; 2; 5; 17; 20 ]
    in
    Alcotest.(check (list string)) (Printf.sprintf "update %d" i)
      (answers ~queries (rebuilt s)) (answers ~queries (Updates.store s))
  done;
  Alcotest.(check bool) "some updates were rejected" true (!rejected > 0);
  Alcotest.(check bool) "most updates applied" true (!rejected < 100);
  Alcotest.(check int) "no relabel" relabels (Stats.total "publish_relabels");
  Alcotest.(check (list string)) "a store pinned before the updates" at_start (answers pinned);
  (* WAL replay's shape: every update applied before the first store, so
     the full build meets parent pointers left behind by path copies *)
  let replayed = Updates.of_string ~level (Lazy.force doc_01) in
  let rng = Prng.create ~seed:14L () in
  for i = 1 to 200 do
    try random_update rng replayed i with Updates.Update_error _ -> ()
  done;
  Alcotest.(check (list string)) "updates replayed before the first store"
    (answers (Updates.store s)) (answers (Updates.store replayed))

let test_bid_builds_little () =
  let s = Updates.of_string (Lazy.force doc_01) in
  ignore (Updates.store s);
  with_stats (fun () ->
      let built0 = Stats.total "publish_nodes_built" in
      Updates.place_bid s ~auction:"open_auction0" ~person:"person1" ~increase:2.5
        ~date:"07/31/2002" ~time:"12:00:00";
      ignore (Updates.store s);
      let built = Stats.total "publish_nodes_built" - built0 in
      Alcotest.(check bool) (Printf.sprintf "%d nodes built" built) true (built > 0 && built < 100))

let test_rejection_leaves_no_trace () =
  let s = Updates.of_string (Lazy.force doc_01) in
  let root = Updates.root s and store = Updates.store s in
  (match Updates.place_bid s ~auction:"open_auction0" ~person:"nobody" ~increase:1.0 ~date:"d" ~time:"t" with
  | exception Updates.Update_error (Updates.Unknown_person _) -> ()
  | _ -> Alcotest.fail "expected Unknown_person");
  Alcotest.(check bool) "root pointer unmoved" true (Updates.root s == root);
  Alcotest.(check bool) "nothing pending" false (Updates.pending s);
  Alcotest.(check bool) "same store" true (Updates.store s == store)

(* The free range after the last person is [Dom.order_gap - 1] keys and
   a registered person (person, name, text, emailaddress, text) takes 5:
   that many registrations fit, the next one relabels. *)
let test_relabel () =
  let s = Updates.of_string (Lazy.force doc_01) in
  ignore (Updates.store s);
  let fit = (Dom.order_gap - 1) / 5 in
  let register i = ignore (Updates.register_person s ~name:"R" ~email:(string_of_int i)) in
  with_stats (fun () ->
      let relabels0 = Stats.total "publish_relabels" in
      for i = 1 to fit do
        register i;
        if i mod 1000 = 0 then ignore (Updates.store s)
      done;
      ignore (Updates.store s);
      Alcotest.(check int) "no relabel while the gap lasts" relabels0 (Stats.total "publish_relabels");
      register (fit + 1);
      Alcotest.(check int) "one relabel" (relabels0 + 1) (Stats.total "publish_relabels"));
  Alcotest.(check (list string)) "relabelled store agrees with a rebuild"
    (answers (rebuilt s)) (answers (Updates.store s));
  Updates.place_bid s ~auction:"open_auction0" ~person:"person1" ~increase:1.0 ~date:"d" ~time:"t";
  let queries = [ 1; 2; 5 ] in
  Alcotest.(check (list string)) "patching resumes after a relabel"
    (answers ~queries (rebuilt s)) (answers ~queries (Updates.store s))

let () =
  Alcotest.run "summary-updates"
    [
      ( "summary",
        [
          Alcotest.test_case "root" `Quick test_summary_root;
          Alcotest.test_case "cardinalities" `Quick test_summary_cardinalities;
          Alcotest.test_case "descendants" `Quick test_summary_descendants;
          Alcotest.test_case "extent order" `Quick test_summary_extent_order;
          Alcotest.test_case "paths consistent" `Quick test_summary_paths_consistent;
          Alcotest.test_case "pretty printing" `Quick test_summary_pp;
        ] );
      ( "updates",
        [
          Alcotest.test_case "register person" `Quick test_register_person;
          Alcotest.test_case "place bid" `Quick test_place_bid;
          Alcotest.test_case "bid errors" `Quick test_place_bid_errors;
          Alcotest.test_case "close auction" `Quick test_close_auction;
          Alcotest.test_case "close without bids" `Quick test_close_without_bids;
          Alcotest.test_case "backends agree after updates" `Quick
            test_updated_document_still_agrees_across_backends;
          Alcotest.test_case "summary reflects updates" `Quick test_summary_reflects_updates;
        ] );
      ( "incremental publish",
        [
          Alcotest.test_case "epoch differential D" `Slow (epoch_differential `Full);
          Alcotest.test_case "epoch differential E" `Slow (epoch_differential `Id_only);
          Alcotest.test_case "epoch differential F" `Slow (epoch_differential `Plain);
          Alcotest.test_case "bid builds O(change)" `Quick test_bid_builds_little;
          Alcotest.test_case "rejection leaves no trace" `Quick test_rejection_leaves_no_trace;
          Alcotest.test_case "relabel when a gap runs out" `Slow test_relabel;
        ] );
    ]
