(* The query service: admission control rejects typed and recovers,
   deadlines produce typed timeouts (never crashes or wrong answers),
   the prepared-plan cache lends plans exclusively with LRU eviction,
   the workload driver replays deterministically, and — the differential
   contract — the server's answers for the full 7x20 matrix under four
   concurrent clients match the single-shot Runner digests.  The
   xmark_serve process counts (--fleet, --shards) refuse negatives. *)

module Runner = Xmark_core.Runner
module Server = Xmark_service.Server
module P = Xmark_service.Protocol
module Plan_cache = Xmark_service.Plan_cache
module Workload = Xmark_service.Workload

(* The read-only benchmark submission every test here uses: a typed
   request through the one entry point, unwrapped to the reply record. *)
let submit server n =
  match Server.handle server (P.request (P.Benchmark n)) with
  | Ok (P.Reply r) -> Ok r
  | Ok (P.Committed _ | P.Partial_reply _) ->
      Error (P.Failed "read answered with the wrong shape")
  | Error e -> Error e

let document = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.002 ())

let session sys = Runner.load ~source:(`Text (Lazy.force document)) sys

let reference_digest store n =
  Digest.to_hex (Digest.string (Runner.canonical (Runner.run store n)))

let no_deadline = { Server.default_config with Server.deadline_ms = None }

(* --- admission control ----------------------------------------------------- *)

let test_admission_overload () =
  (* one slot, no queue: with four domains hammering a multi-millisecond
     query, submissions must overlap, so some are rejected — typed, with
     the load snapshot — and every accepted one still answers right *)
  let server =
    Server.create
      ~config:{ no_deadline with Server.max_inflight = 1; queue_depth = 0 }
      (session Runner.D)
  in
  let store = (Server.session server).Runner.store in
  let want = reference_digest store 10 in
  let per_domain = 30 in
  let client () =
    let ok = ref 0 and rejected = ref 0 and wrong = ref 0 in
    for _ = 1 to per_domain do
      match submit server 10 with
      | Ok r ->
          incr ok;
          if r.Server.digest <> want then incr wrong
      | Error (Server.Overloaded { inflight; queued }) ->
          incr rejected;
          if inflight < 1 || queued <> 0 then incr wrong
      | Error e -> Alcotest.failf "unexpected %s" (Server.error_to_string e)
    done;
    (!ok, !rejected, !wrong)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn client) in
  let ok, rejected, wrong =
    List.fold_left
      (fun (a, b, c) d ->
        let x, y, z = Domain.join d in
        (a + x, b + y, c + z))
      (0, 0, 0) domains
  in
  Alcotest.(check int) "every request accounted for" (4 * per_domain) (ok + rejected);
  Alcotest.(check bool) "some requests served" true (ok > 0);
  Alcotest.(check bool) "overload observed" true (rejected > 0);
  Alcotest.(check int) "no wrong answers or bogus load snapshots" 0 wrong;
  let t = Server.totals server in
  Alcotest.(check int) "totals.served" ok t.Server.served;
  Alcotest.(check int) "totals.rejected" rejected t.Server.rejected;
  (* the gate recovers: a quiet submission is admitted *)
  match submit server 1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-overload submit failed: %s" (Server.error_to_string e)

let test_queue_admits_beyond_inflight () =
  (* same load but a deep queue: nothing may be rejected *)
  let server =
    Server.create
      ~config:{ no_deadline with Server.max_inflight = 1; queue_depth = 64 }
      (session Runner.D)
  in
  let client () =
    let bad = ref 0 in
    for _ = 1 to 20 do
      match submit server 6 with Ok _ -> () | Error _ -> incr bad
    done;
    !bad
  in
  let domains = List.init 4 (fun _ -> Domain.spawn client) in
  let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Alcotest.(check int) "no rejections with a deep queue" 0 bad

(* --- deadlines ------------------------------------------------------------- *)

let test_deadline_timeout () =
  (* a sub-microsecond budget: every request exceeds it, each returns a
     typed Timeout with a sane elapsed time, and the server survives *)
  let server =
    Server.create
      ~config:{ no_deadline with Server.deadline_ms = Some 0.0001 }
      (session Runner.D)
  in
  for _ = 1 to 5 do
    match submit server 8 with
    | Error (Server.Timeout { elapsed_ms }) ->
        Alcotest.(check bool) "elapsed time is positive" true (elapsed_ms > 0.0)
    | Ok _ -> Alcotest.fail "impossible deadline was met"
    | Error e -> Alcotest.failf "expected Timeout, got %s" (Server.error_to_string e)
  done;
  Alcotest.(check int) "timeouts counted" 5 (Server.totals server).Server.timed_out

let test_deadline_generous () =
  (* a deadline nobody hits changes nothing: answers match the
     deadline-free digests *)
  let server =
    Server.create
      ~config:{ no_deadline with Server.deadline_ms = Some 60_000.0 }
      (session Runner.D)
  in
  let store = (Server.session server).Runner.store in
  List.iter
    (fun n ->
      match submit server n with
      | Ok r ->
          Alcotest.(check string)
            (Printf.sprintf "Q%d digest under deadline" n)
            (reference_digest store n) r.Server.digest
      | Error e -> Alcotest.failf "Q%d: %s" n (Server.error_to_string e))
    [ 1; 8; 13; 20 ]

(* --- prepared-plan cache --------------------------------------------------- *)

let test_plan_reuse () =
  let server = Server.create ~config:no_deadline (session Runner.C) in
  (match submit server 8 with
  | Ok r -> Alcotest.(check bool) "first submission misses" false r.Server.plan_hit
  | Error e -> Alcotest.failf "%s" (Server.error_to_string e));
  (match submit server 8 with
  | Ok r -> Alcotest.(check bool) "second submission hits" true r.Server.plan_hit
  | Error e -> Alcotest.failf "%s" (Server.error_to_string e));
  let t = Server.totals server in
  Alcotest.(check int) "plan hits" 1 t.Server.plan_hits;
  Alcotest.(check int) "plan misses" 1 t.Server.plan_misses

let test_plan_cache_lru () =
  let store = (session Runner.D).Runner.store in
  let cache = Plan_cache.create ~capacity:1 in
  let build n () = Runner.prepare store n in
  let q1 = Xmark_core.Queries.text 1 and q2 = Xmark_core.Queries.text 2 in
  let p1, hit1 = Plan_cache.checkout cache q1 (build 1) in
  Alcotest.(check bool) "cold q1 misses" false hit1;
  Plan_cache.checkin cache q1 p1;
  let p2, hit2 = Plan_cache.checkout cache q2 (build 2) in
  Alcotest.(check bool) "cold q2 misses" false hit2;
  Plan_cache.checkin cache q2 p2;
  (* capacity 1: q2's checkin evicted q1's idle plan *)
  let _, _, evictions = Plan_cache.stats cache in
  Alcotest.(check int) "one eviction" 1 evictions;
  let _, hit2' = Plan_cache.checkout cache q2 (build 2) in
  Alcotest.(check bool) "q2 survived as the most recent" true hit2';
  let _, hit1' = Plan_cache.checkout cache q1 (build 1) in
  Alcotest.(check bool) "q1 was the eviction victim" false hit1'

let test_plan_cache_disabled () =
  let store = (session Runner.D).Runner.store in
  let cache = Plan_cache.create ~capacity:0 in
  let q1 = Xmark_core.Queries.text 1 in
  let p, _ = Plan_cache.checkout cache q1 (fun () -> Runner.prepare store 1) in
  Plan_cache.checkin cache q1 p;
  let _, hit = Plan_cache.checkout cache q1 (fun () -> Runner.prepare store 1) in
  Alcotest.(check bool) "capacity 0 never hits" false hit

(* --- workload driver ------------------------------------------------------- *)

let test_workload_deterministic () =
  let server = Server.create ~config:no_deadline (session Runner.D) in
  let go () =
    Workload.run ~seed:42L ~clients:3 ~requests:60 ~mix:Workload.uniform_mix
      server
  in
  let a = go () and b = go () in
  Alcotest.(check int) "all requests answered" 60 a.Workload.r_ok;
  Alcotest.(check int) "no digest mismatches" 0 a.Workload.r_digest_mismatches;
  let counts r =
    List.map
      (fun c -> (Workload.class_label c.Workload.cs_class, c.Workload.cs_count))
      r.Workload.r_classes
  in
  Alcotest.(check (list (pair string int)))
    "same seed draws the same per-class mix" (counts a) (counts b)

(* --- differential: 7 systems x 20 queries under 4 clients ------------------ *)

let differential sys =
  let s = session sys in
  let reference =
    Array.init 20 (fun i -> reference_digest s.Runner.store (i + 1))
  in
  let server = Server.create ~config:no_deadline s in
  let client d () =
    let bad = ref [] in
    for k = 0 to 19 do
      (* each client walks the matrix in a different rotation *)
      let n = 1 + ((k + (5 * d)) mod 20) in
      match submit server n with
      | Ok r -> if r.Server.digest <> reference.(n - 1) then bad := n :: !bad
      | Error e ->
          Alcotest.failf "%s Q%d: %s" (Runner.system_name sys) n
            (Server.error_to_string e)
    done;
    !bad
  in
  let domains = List.init 4 (fun d -> Domain.spawn (client d)) in
  let bad = List.concat_map Domain.join domains in
  if bad <> [] then
    Alcotest.failf "%s: digests diverge under concurrency for Q%s"
      (Runner.system_name sys)
      (String.concat ",Q" (List.map string_of_int (List.sort_uniq compare bad)))

let differential_case sys =
  Alcotest.test_case (Runner.system_name sys) `Quick (fun () -> differential sys)

(* Parse one command line against a count flag in process: the exit
   code cmdliner would give, with the flag's value as the success code.
   Nothing is forked or served. *)
let count_exit term argv =
  let cmd = Cmdliner.(Cmd.v (Cmd.info "t") Term.(const Fun.id $ term)) in
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  Cmdliner.Cmd.eval' ~argv:(Array.of_list ("t" :: argv)) ~err:null cmd

let test_counts_refuse_negatives () =
  List.iter
    (fun (flag, term) ->
      let check argv want =
        Alcotest.(check int) (String.concat " " argv) want (count_exit term argv)
      in
      check [] 0;
      check [ flag ^ "=0" ] 0;
      check [ flag ^ "=3" ] 3;
      check [ flag ^ "=-1" ] Cmdliner.Cmd.Exit.cli_error;
      check [ flag ^ "=-2" ] Cmdliner.Cmd.Exit.cli_error;
      check [ flag ^ "=x" ] Cmdliner.Cmd.Exit.cli_error)
    [ ("--fleet", Xmark_core.Cli.fleet); ("--shards", Xmark_core.Cli.shards) ]

let () =
  Alcotest.run "service"
    [
      ( "admission",
        [
          Alcotest.test_case "overload rejects typed" `Quick test_admission_overload;
          Alcotest.test_case "queue absorbs bursts" `Quick test_queue_admits_beyond_inflight;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "impossible budget times out" `Quick test_deadline_timeout;
          Alcotest.test_case "generous budget is invisible" `Quick test_deadline_generous;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "server reuses plans" `Quick test_plan_reuse;
          Alcotest.test_case "lru eviction" `Quick test_plan_cache_lru;
          Alcotest.test_case "capacity 0 disables" `Quick test_plan_cache_disabled;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic replay" `Quick test_workload_deterministic;
        ] );
      ("differential 7x20, 4 clients", List.map differential_case Runner.all_systems);
      ( "cli",
        [
          Alcotest.test_case "--fleet and --shards refuse negatives" `Quick
            test_counts_refuse_negatives;
        ] );
    ]
