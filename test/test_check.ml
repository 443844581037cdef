(* The property-testing subsystem itself: generator determinism, the
   round-trip and scan-count properties over generated documents, the
   shrinking machinery (a planted bug must shrink to its minimal
   reproducer, replay byte-identically from the printed seeds, and
   fail [Property.check] with those seeds in its message),
   bounded campaigns of all three fuzz targets, and replay of the
   checked-in regression corpus. *)

module Prng = Xmark_prng.Prng
module Check = Xmark_check
module Gen = Check.Gen
module Mutate = Check.Mutate
module Property = Check.Property
module Sax = Xmark_xml.Sax
module Dom = Xmark_xml.Dom
module Serialize = Xmark_xml.Serialize
module Stats = Xmark_stats

(* --- determinism ---------------------------------------------------------- *)

let rec collect f g n acc =
  if n = 0 then List.rev acc else collect f g (n - 1) (f g :: acc)

let test_gen_deterministic () =
  let docs seed = collect Gen.xml (Prng.create ~seed ()) 20 [] in
  Alcotest.(check (list string)) "same seed, same documents"
    (docs 42L) (docs 42L);
  Alcotest.(check bool) "different seed, different documents" false
    (docs 42L = docs 43L)

let test_mutate_deterministic () =
  let base = Gen.xml (Prng.create ~seed:7L ()) in
  let mutations seed =
    collect (fun g -> snd (Mutate.mutate g base)) (Prng.create ~seed ()) 50 []
  in
  Alcotest.(check (list string)) "same seed, same mutations"
    (mutations 9L) (mutations 9L)

(* --- properties of the real stack on generated documents ------------------ *)

let test_roundtrip_property () =
  let g = Prng.create ~seed:1L () in
  for _ = 1 to 200 do
    let d = Gen.doc g in
    let s = Serialize.to_string d in
    let d' = Sax.parse_string s in
    if not (Dom.equal d d') then
      Alcotest.failf "parse (serialize d) <> d for %s" s
  done

(* [scan] and [parse_dom] consume the same event stream: the count scan
   returns must equal the events the stats counter sees during a DOM
   build of the same input. *)
let test_scan_count_property () =
  let g = Prng.create ~seed:2L () in
  let was_enabled = Stats.enabled () in
  Stats.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Stats.set_enabled was_enabled)
    (fun () ->
      for _ = 1 to 100 do
        let s = Serialize.to_string (Gen.doc g) in
        Stats.reset ();
        let scanned = Sax.scan (Sax.of_string s) in
        let scan_events = Stats.total "sax_events" in
        Stats.reset ();
        ignore (Sax.parse_dom (Sax.of_string s));
        let parse_events = Stats.total "sax_events" in
        Alcotest.(check int) "scan return value counts the events"
          scan_events scanned;
        Alcotest.(check int) "parse_dom sees the same event stream"
          scanned parse_events
      done)

(* --- the shrinking machinery on a planted bug ----------------------------- *)

(* Token soup over a tiny alphabet; the "bug" fires on the substring
   "<>".  The minimal input any shrink sequence can reach is the
   substring itself. *)
let planted : string Property.t =
  {
    Property.name = "planted";
    gen =
      (fun g ->
        let n = Prng.int g 13 in
        String.init n (fun _ -> "<>ab".[Prng.int g 4]));
    shrink = Check.Shrink.string;
    prop =
      (fun s ->
        let rec has i =
          i + 1 < String.length s
          && ((s.[i] = '<' && s.[i + 1] = '>') || has (i + 1))
        in
        if has 0 then Error "planted bug" else Ok "clean");
    to_bytes = Fun.id;
    ext = "txt";
  }

let test_shrink_to_minimal () =
  let dir = Filename.temp_file "xmark_corpus" "" in
  Sys.remove dir;
  let report = Property.run ~corpus_dir:dir ~count:500 ~seed:5L planted in
  match report.Property.r_failure with
  | None -> Alcotest.fail "planted bug never found in 500 cases"
  | Some f ->
      Alcotest.(check string) "shrunk to the minimal reproducer" "<>"
        f.Property.f_input;
      (* the campaign seed replays to the identical failure *)
      let report2 = Property.run ~count:500 ~seed:5L planted in
      (match report2.Property.r_failure with
      | None -> Alcotest.fail "replay lost the failure"
      | Some f2 ->
          Alcotest.(check string) "replayed input identical"
            f.Property.f_input f2.Property.f_input;
          Alcotest.(check int) "replayed at the same iteration"
            f.Property.f_iteration f2.Property.f_iteration;
          Alcotest.(check bool) "same case seed" true
            (Int64.equal f.Property.f_case_seed f2.Property.f_case_seed));
      (* the test-suite entry point raises with both seeds and the input *)
      (match Property.check ~count:500 ~seed:5L planted () with
      | () -> Alcotest.fail "check passed the planted bug"
      | exception Failure msg ->
          Alcotest.(check string) "message names both seeds and the input"
            (Printf.sprintf
               "property \"planted\" failed: campaign seed 5, case seed %Ld (iteration %d, %d \
                shrink steps)\nplanted bug\ninput: <>"
               f.Property.f_case_seed f.Property.f_iteration f.Property.f_shrink_steps)
            msg);
      (* the case seed alone rebuilds a failing input, no campaign *)
      let replayed = Property.gen_case planted f.Property.f_case_seed in
      (match planted.Property.prop replayed with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "case seed did not rebuild a failing input");
      (* a reproducer landed in the corpus directory *)
      (match f.Property.f_corpus with
      | None -> Alcotest.fail "no corpus file written"
      | Some path ->
          Alcotest.(check bool) "corpus file exists" true (Sys.file_exists path);
          let ic = open_in_bin path in
          let contents = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Alcotest.(check string) "corpus file holds the shrunk input" "<>"
            contents;
          Sys.remove path)

(* --- bounded campaigns of the real fuzz targets --------------------------- *)

let outcome_count report label =
  match List.assoc_opt label report.Property.r_outcomes with
  | Some n -> n
  | None -> 0

let check_pass what report =
  match report.Property.r_failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s campaign found a violation: %s (case seed %Ld)\n%s"
        what f.Property.f_message f.Property.f_case_seed f.Property.f_repr

let test_campaign_sax () =
  let r = Check.Fuzz_sax.run ~max_bytes:4096 ~seed:11L ~iterations:300 () in
  check_pass "sax" r;
  Alcotest.(check bool) "rejects some inputs" true
    (outcome_count r "parse-error" > 0);
  Alcotest.(check bool) "accepts some inputs" true
    (outcome_count r "well-formed" > 0)

let test_campaign_snapshot () =
  let r = Check.Fuzz_snapshot.run ~seed:12L ~iterations:60 () in
  check_pass "snapshot" r;
  let total pred =
    List.fold_left
      (fun acc (label, n) -> if pred label then acc + n else acc)
      0 r.Property.r_outcomes
  in
  let prefixed p label = String.length label >= String.length p
                         && String.sub label 0 (String.length p) = p in
  Alcotest.(check bool) "some corruptions detected" true
    (total (prefixed "corrupt-") > 0);
  Alcotest.(check bool) "some round-trips survive" true
    (total (prefixed "roundtrip-") > 0)

let test_campaign_service () =
  let r = Check.Fuzz_service.run ~seed:13L ~iterations:30 () in
  check_pass "service" r

(* --- regression corpus replay --------------------------------------------- *)

let test_corpus_replay () =
  let results = Check.Corpus.replay_dir "corpus" in
  Alcotest.(check bool)
    (Printf.sprintf "corpus has enough cases (%d)" (List.length results))
    true
    (List.length results >= 10);
  List.iter
    (fun (path, r) ->
      match r with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" path msg)
    results

let () =
  Alcotest.run "check"
    [
      ( "determinism",
        [
          Alcotest.test_case "generator" `Quick test_gen_deterministic;
          Alcotest.test_case "mutator" `Quick test_mutate_deterministic;
        ] );
      ( "properties",
        [
          Alcotest.test_case "serialize/parse round-trip" `Quick
            test_roundtrip_property;
          Alcotest.test_case "scan count = parse_dom events" `Quick
            test_scan_count_property;
        ] );
      ( "shrinking",
        [ Alcotest.test_case "planted bug" `Quick test_shrink_to_minimal ] );
      ( "campaigns",
        [
          Alcotest.test_case "sax" `Quick test_campaign_sax;
          Alcotest.test_case "snapshot" `Quick test_campaign_snapshot;
          Alcotest.test_case "service" `Quick test_campaign_service;
        ] );
      ( "corpus",
        [ Alcotest.test_case "replay" `Quick test_corpus_replay ] );
    ]
