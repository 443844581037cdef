(* Vectorized batch-at-a-time execution: the Batch block container, the
   cost model's physical picks, the new execution counters, cooperative
   per-block cancellation (direct and through the service's deadline),
   and — the load-bearing contract — vectorized and scalar execution
   produce byte-identical canonical results for the full 7x20 matrix. *)

module Runner = Xmark_core.Runner
module Batch = Xmark_relational.Batch
module Vec = Xmark_relational.Vec_ops
module Cancel = Xmark_xquery.Cancel
module Server = Xmark_service.Server
module P = Xmark_service.Protocol

let with_vec flag f =
  let prev = Vec.is_enabled () in
  Vec.set_enabled flag;
  Fun.protect ~finally:(fun () -> Vec.set_enabled prev) f

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  at 0

let contains_flip needle hay = contains hay needle

(* --- Batch ------------------------------------------------------------------ *)

let test_batch_growth () =
  let b = Batch.create ~capacity:2 () in
  for i = 0 to 4999 do
    Batch.push b (4999 - i)
  done;
  Alcotest.(check int) "length" 5000 (Batch.length b);
  let a = Batch.to_array b in
  Alcotest.(check int) "first pushed" 4999 a.(0);
  Alcotest.(check int) "last pushed" 0 a.(4999)

let test_batch_sorted_unique () =
  let b = Batch.create () in
  List.iter (Batch.push b) [ 5; 3; 5; 1; 3; 3; 9; 1 ];
  Alcotest.(check (array int)) "sorted, deduplicated" [| 1; 3; 5; 9 |]
    (Batch.sorted_unique b)

let test_batch_iter_blocks () =
  (* 2.5 blocks: three callbacks, a poll before each, exact offsets *)
  let n = (2 * Batch.block_size) + Batch.block_size / 2 in
  let ids = Array.init n (fun i -> i) in
  let polls = ref 0 and seen = ref [] in
  Batch.iter_blocks
    ~poll:(fun () -> incr polls)
    (fun _ off len -> seen := (off, len) :: !seen)
    ids;
  Alcotest.(check int) "one poll per block" 3 !polls;
  Alcotest.(check (list (pair int int)))
    "offsets and lengths"
    [
      (0, Batch.block_size);
      (Batch.block_size, Batch.block_size);
      (2 * Batch.block_size, Batch.block_size / 2);
    ]
    (List.rev !seen)

(* --- shared worlds ---------------------------------------------------------- *)

let document = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.002 ())

let session sys = Runner.load ~source:(`Text (Lazy.force document)) sys

let store = lazy ((session Runner.B).Runner.store)

(* --- cost model ------------------------------------------------------------- *)

let plan_lines n =
  String.concat "\n"
    (Runner.plan_description (Runner.prepare (Lazy.force store) n))

let test_cost_model_picks () =
  (* Q14 is /site//item...: the document-level first step must use the
     root shortcut and the descendant step the extent interval join (at
     this scale the interval bound beats the closure's
     every-relation-per-level probes). *)
  let q14 = plan_lines 14 in
  Alcotest.(check bool) "root shortcut" true
    (contains_flip "root-test" q14);
  Alcotest.(check bool) "interval join for //item, tag named" true
    (contains_flip "interval-join(item)" q14);
  (* Q1 is a /site/people/person[...] chain: low-cardinality child steps
     must pick hash probes or semijoins, never a closure *)
  let q1 = plan_lines 1 in
  Alcotest.(check bool) "child steps join, no closure" true
    ((contains_flip "probe" q1
     || contains_flip "semijoin" q1)
    && not (contains_flip "closure" q1))

let test_explain_scalar_fallback () =
  (* Q15's trailing text() step cannot vectorize: the plan must say so *)
  Alcotest.(check bool) "scalar tail reported" true
    (contains_flip "scalar tail" (plan_lines 15))

(* --- counters ---------------------------------------------------------------- *)

let test_counters_inventory () =
  List.iter
    (fun c ->
      Alcotest.(check bool) c true (List.mem c Xmark_stats.counter_inventory))
    [ "batches_produced"; "batch_tuples"; "hash_join_probes"; "vec_fallbacks" ]

let test_counters_flow () =
  Xmark_stats.enable ();
  Fun.protect ~finally:Xmark_stats.disable @@ fun () ->
  let counters = (Runner.run (Lazy.force store) 14).Runner.run_stats in
  let get name = Option.value ~default:0 (List.assoc_opt name counters) in
  Alcotest.(check bool) "batches produced" true (get "batches_produced" > 0);
  Alcotest.(check bool) "tuples at least one per batch" true
    (get "batch_tuples" >= get "batches_produced");
  let scalar =
    with_vec false (fun () -> (Runner.run (Lazy.force store) 14).Runner.run_stats)
  in
  let sget name = Option.value ~default:0 (List.assoc_opt name scalar) in
  Alcotest.(check int) "no batches in scalar mode" 0 (sget "batches_produced")

(* --- differential: vectorized = scalar, all systems, all queries ------------ *)

(* Runs [outcome] scalar and vectorized, checks the canonical results
   are equal and returns the vectorized one. *)
let vec_equals_scalar label outcome =
  let digest () = Runner.canonical (outcome ()) in
  let scalar = with_vec false digest and vec = with_vec true digest in
  Alcotest.(check string) label scalar vec;
  vec

let test_matrix_differential () =
  List.iter
    (fun sys ->
      let s = (session sys).Runner.store in
      for n = 1 to 20 do
        ignore
          (vec_equals_scalar
             (Printf.sprintf "%s Q%d" (Runner.system_name sys) n)
             (fun () -> Runner.run s n))
      done)
    Runner.all_systems

(* Fixed absolute paths beyond Q1-Q20's: root tests, child and
   descendant chains, wildcards, attribute-equality filters and a path
   that matches nothing.  Systems A and B must each answer them the same
   vectorized and scalar, and agree with each other. *)
let fixed_paths =
  [
    "/site";
    "/site/people/person";
    "/site/regions/europe/item";
    "/site//item";
    "/site//keyword";
    "//person";
    "/site/open_auctions/open_auction/bidder/increase";
    {|/site/people/person[@id = "person0"]|};
    {|/site//item[@featured = "yes"]|};
    "/site/*";
    "/site/regions/*/item";
    "/nothing/here";
  ]

let fixed_path_digests sys =
  let s = (session sys).Runner.store in
  List.map
    (fun src ->
      vec_equals_scalar
        (Printf.sprintf "%s %s" (Runner.system_name sys) src)
        (fun () -> Runner.run_text s src))
    fixed_paths

(* The vectorized path operators on System A's heap store return what
   scalar navigation returns. *)
let test_a_matches_navigation () = ignore (fixed_path_digests Runner.A)

(* The same over System B's fragmenting mapping. *)
let test_b_matches_navigation () = ignore (fixed_path_digests Runner.B)

(* Both relational mappings number nodes in document pre-order, so the
   two systems must answer every fixed path identically. *)
let test_b_agrees_with_a () =
  let a = fixed_path_digests Runner.A and b = fixed_path_digests Runner.B in
  List.iter2
    (fun src (da, db) -> Alcotest.(check string) ("A = B: " ^ src) da db)
    fixed_paths (List.combine a b)

(* --- cancellation ------------------------------------------------------------ *)

let test_cancel_polls_per_block () =
  (* an armed check must abort a vectorized descendant scan from inside
     the batch loop — at this scale every step is a single block, so the
     very first per-block poll has to reach the check *)
  let s = Lazy.force store in
  let polls = ref 0 in
  match
    Cancel.with_check
      (fun () ->
        incr polls;
        raise (Cancel.Cancelled "tripped by test"))
      (fun () -> Runner.run_text s "/site//item/name")
  with
  | _ -> Alcotest.fail "evaluation ignored the armed cancellation check"
  | exception Cancel.Cancelled _ ->
      Alcotest.(check bool) "the check was polled" true (!polls >= 1)

let test_service_deadline_timeout () =
  (* a sub-millisecond deadline against the vectorized descendant scans
     of System B: the per-block polls must surface a typed Timeout *)
  let config =
    { Server.default_config with Server.deadline_ms = Some 0.0001 }
  in
  let server = Server.create ~config (session Runner.B) in
  match Server.handle server (P.request (P.Benchmark 14)) with
  | Error (Server.Timeout { elapsed_ms }) ->
      Alcotest.(check bool) "elapsed time is positive" true (elapsed_ms > 0.0)
  | Ok _ -> Alcotest.fail "impossible deadline was met"
  | Error e ->
      Alcotest.failf "expected Timeout, got %s" (Server.error_to_string e)

let () =
  Alcotest.run "vec"
    [
      ( "batch",
        [
          Alcotest.test_case "growth" `Quick test_batch_growth;
          Alcotest.test_case "sorted_unique" `Quick test_batch_sorted_unique;
          Alcotest.test_case "iter_blocks" `Quick test_batch_iter_blocks;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "physical picks" `Quick test_cost_model_picks;
          Alcotest.test_case "scalar fallback reported" `Quick
            test_explain_scalar_fallback;
        ] );
      ( "counters",
        [
          Alcotest.test_case "inventory" `Quick test_counters_inventory;
          Alcotest.test_case "flow" `Quick test_counters_flow;
        ] );
      ( "differential",
        [
          Alcotest.test_case "vec = scalar, 7x20" `Slow test_matrix_differential;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "matches navigation" `Quick
            test_a_matches_navigation;
        ] );
      ( "system-b",
        [
          Alcotest.test_case "matches navigation" `Quick
            test_b_matches_navigation;
          Alcotest.test_case "agrees with system A compiler" `Quick
            test_b_agrees_with_a;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "per-block polls" `Quick test_cancel_polls_per_block;
          Alcotest.test_case "service deadline" `Quick
            test_service_deadline_timeout;
        ] );
    ]
