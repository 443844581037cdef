(* mixed-d: a writable System D server under a closed loop of two
   clients issuing Workload.mixed_mix — auction browsing under a bid
   storm, about one write in three, every commit fsynced to the WAL and
   published as a new epoch.

   The mix is stratified: each cycle of 45 operations holds every class
   exactly as often as its weight says, in an order drawn from the seed,
   so the share of writes — which dominates the run time — is the same
   on every seed.  Both clients take their next operation from the one
   shared cycle.

   The clients are two threads of one domain: one client's fsync or lock
   wait lets the other run.  As two domains they would meet at every
   stop-the-world minor collection — each publish triggers dozens — so a
   second vCPU slowed by another tenant stalls both: with a CPU hog on one
   vCPU, two domains ran two to three times slower, two threads no
   slower. *)

module Runner = Xmark_core.Runner
module Stats = Xmark_stats
module Server = Xmark_service.Server
module Writer = Xmark_service.Writer
module Workload = Xmark_service.Workload
module P = Xmark_service.Protocol
module Prng = Xmark_prng.Prng
open Bench

let clients = 2

let reads = List.filter_map (function Workload.Query q, _ -> Some q | _ -> None) Workload.mixed_mix

type state = { writer : Writer.t; server : Server.t; dir : string; text : string }

(* The update a write class sends; ids drawn from the writer's id space.
   Closing auctions makes later bids on them typed rejections, which
   the mix expects. *)
let update rng ~client ~seq (n_auctions, n_persons) = function
  | Workload.Bid ->
      P.Place_bid
        {
          auction = Printf.sprintf "open_auction%d" (Prng.int rng n_auctions);
          person = Printf.sprintf "person%d" (Prng.int rng n_persons);
          increase = float_of_int (1 + Prng.int rng 40) /. 2.0;
          date = "07/31/2002";
          time = "12:00:00";
        }
  | Workload.Register ->
      P.Register_person
        {
          name = Printf.sprintf "Bench Client %d-%d" client seq;
          email = Printf.sprintf "mailto:client%d.%d@bench.invalid" client seq;
        }
  | Workload.Close ->
      P.Close_auction
        { auction = Printf.sprintf "open_auction%d" (Prng.int rng n_auctions); date = "07/31/2002" }
  | Workload.Query _ -> invalid_arg "update: not a write class"

let record_op = function
  | P.Register_person { name; email } -> Xmark_wal.Record.Register_person { name; email }
  | P.Place_bid { auction; person; increase; date; time } ->
      Xmark_wal.Record.Place_bid { auction; person; increase; date; time }
  | P.Close_auction { auction; date } -> Xmark_wal.Record.Close_auction { auction; date }

let run cfg ~factor =
  let failures = ref [] and fail_lock = Mutex.create () in
  let fail msg = Mutex.protect fail_lock (fun () -> failures := msg :: !failures) in
  let samples = Samples.create () in
  let sample = Samples.add samples in
  let build rep =
    let text, gen_ms =
      Trace.timed_span "xmlgen.generate" (fun () -> Xmark_xmlgen.Generator.to_string ~factor ())
    in
    let dir = scratch_path (Printf.sprintf "wal-%d" rep) in
    let t_load = Trace.now_ns () in
    let sax0 = Stats.total "sax_events" in
    let (writer, _), open_ms =
      Trace.timed_span "writer.open" (fun () ->
          Writer.open_dir ~dir
            ~bootstrap:(fun () ->
              let dom, ms =
                Trace.timed_span "xml.parse" (fun () -> Xmark_xml.Sax.parse_string text)
              in
              sample "xml.parse_ms" ms;
              dom)
            ())
    in
    let server, build_ms =
      Trace.timed_span "store.build" (fun () -> Server.create_writable writer)
    in
    let load_ms = Trace.ms_since t_load in
    sample "xmlgen.generate_ms" gen_ms;
    sample "writer.open_ms" open_ms;
    sample "store.build_ms" build_ms;
    sample "xml.sax_events" (float_of_int (Stats.total "sax_events" - sax0));
    let session = Server.session server in
    sample "store.bytes_per_doc_byte"
      (float_of_int session.Runner.load_stats.Runner.db_bytes /. float_of_int (String.length text));
    Trace.span "warmup" (fun () ->
        List.iter
          (fun q ->
            match
              Trace.span "service.handle" (fun () -> Server.handle server (P.request (P.Benchmark q)))
            with
            | Ok (P.Reply r) when r.P.digest = Pinned.digest ~factor q -> ()
            | Ok (P.Reply r) -> fail (Printf.sprintf "warm-up Q%d answered %s" q r.P.digest)
            | _ -> fail (Printf.sprintf "warm-up Q%d failed" q))
          reads);
    ( { writer; server; dir; text },
      load_ms,
      fun () ->
        Writer.close writer;
        remove_tree dir )
  in
  let st, setup_ms, load_ms = repeat_setup cfg build in
  let targets = Writer.write_targets st.writer in
  let rng = Prng.create ~seed:(Int64.of_int cfg.seed) () in
  let cycle =
    Array.of_list (List.concat_map (fun (c, w) -> List.init w (fun _ -> c)) Workload.mixed_mix)
  in
  (* epoch -> digest per query: two answers at one epoch must agree *)
  let seen : (int * int, string) Hashtbl.t = Hashtbl.create 256 in
  let committed = ref [] in
  let lock = Mutex.create () in
  let req = ref 0 in
  (* The extra result is the phase's wall time in seconds. *)
  let phase ~traced seconds =
    let queue = ref [] in
    let next_class () =
      Mutex.protect lock (fun () ->
          if !queue = [] then begin
            let c = Array.copy cycle in
            Prng.shuffle rng c;
            queue := Array.to_list c
          end;
          match !queue with
          | c :: rest ->
              queue := rest;
              incr req;
              (c, !req)
          | [] -> assert false)
    in
    let t0 = Trace.now_ns () in
    let crngs = Array.init clients (fun _ -> Prng.split rng) in
    let client id =
      let crng = crngs.(id) in
      let conn = Workload.local st.server () in
      let mine = ref [] and seq = ref 0 in
      while Trace.ms_since t0 < seconds *. 1000.0 do
        let cls, r = next_class () in
        incr seq;
        let query =
          match cls with
          | Workload.Query q -> P.Benchmark q
          | w -> P.Update (update crng ~client:id ~seq:!seq targets w)
        in
        let t = Trace.now_ns () in
        let resp =
          Trace.span ~req:r "op" (fun () ->
              Trace.span ~req:r "service.handle" (fun () ->
                  conn.Workload.call (P.request ~client:(Printf.sprintf "c%d" id) query)))
        in
        let ms = Trace.ms_since t in
        let op ~kind ~ok ~parts =
          { cls = Workload.class_label cls; system = ""; kind; ms; ok; traced; parts;
            counters = []; items = 0 }
        in
        let parts latency queue = [ ("queue", queue); ("server", latency -. queue) ] in
        let op =
          match (cls, resp) with
          | Workload.Query q, Ok (P.Reply rep) ->
              Mutex.protect lock (fun () ->
                  match Hashtbl.find_opt seen (q, rep.P.epoch) with
                  | Some d when d <> rep.P.digest ->
                      fail (Printf.sprintf "Q%d at epoch %d: two different answers" q rep.P.epoch)
                  | Some _ -> ()
                  | None -> Hashtbl.replace seen (q, rep.P.epoch) rep.P.digest);
              if rep.P.epoch = 0 && rep.P.digest <> Pinned.digest ~factor q then
                fail (Printf.sprintf "Q%d at epoch 0 answered %s" q rep.P.digest);
              op ~kind:(kind_of_query q) ~ok:true
                ~parts:(parts rep.P.latency_ms rep.P.queue_ms)
          | _, Ok (P.Committed c) ->
              (match query with
              | P.Update u -> Mutex.protect lock (fun () -> committed := (c.P.lsn, u) :: !committed)
              | _ -> ());
              op ~kind:Write ~ok:true ~parts:(parts c.P.latency_ms c.P.queue_ms)
          | _, Error (P.Rejected _) -> op ~kind:Write ~ok:true ~parts:[ ("rejected", 1.0) ]
          | _, (Ok _ | Error _) ->
              Printf.eprintf "%s failed: %s\n%!" (Workload.class_label cls)
                (match resp with Error e -> P.error_to_string e | Ok _ -> "wrong reply shape");
              op ~kind:(match cls with Workload.Query q -> kind_of_query q | _ -> Write)
                ~ok:false ~parts:[]
        in
        mine := op :: !mine
      done;
      conn.Workload.close ();
      !mine
    in
    let words0 = Gc.minor_words () in
    let theirs = ref [] in
    let other = Thread.create (fun () -> theirs := client 1) () in
    let ours = client 0 in
    Thread.join other;
    (ours @ !theirs, Gc.minor_words () -. words0, Trace.ms_since t0 /. 1000.0)
  in
  let totals0 = Server.totals st.server in
  let c0 = Stats.snapshot () in
  let segs = run_phase cfg phase in
  let ops = phase_ops segs in
  let stats_delta = Stats.since c0 in
  let totals1 = Server.totals st.server in
  (* commits carry the server's timings; typed rejections do not *)
  let commits =
    List.filter_map
      (fun o -> if o.kind = Write && part "queue" o <> None then Some o.ms else None)
      ops
  in
  Printf.eprintf "mixed-d: %d commits, p50 %.1f ms, p95 %.1f ms\n%!" (List.length commits)
    (Stat.percentile 50.0 commits) (Stat.percentile 95.0 commits);
  let ops_per_s =
    Stat.ratio
      (float_of_int (List.length (answered ops)))
      (List.fold_left (fun acc s -> acc +. s.extra) 0.0 segs)
  in
  let final = Server.session st.server in
  let final_digests = List.map (fun q -> (q, Writer.digest_of_session final q)) reads in
  (* probes need the final epoch and the recorded updates *)
  let probe_layers =
    if not cfg.trace then []
    else begin
      let session_layers = Probes.session final reads in
      let snap = scratch_path "probe.xms" in
      let (), write_ms =
        Trace.span "probe" (fun () ->
            Trace.timed_span "persist.snapshot_write" (fun () -> Runner.save_snapshot final snap))
      in
      let _, read_layers = Trace.span "probe" (fun () -> Probes.snapshot_read snap Runner.D) in
      let updates =
        List.filteri (fun i _ -> i < 10) (List.rev_map snd (List.sort compare !committed))
      in
      (* a scratch writer replays the run's first updates, commit and
         publish timed apart *)
      let dir = scratch_path "probe-wal" in
      let w, _ =
        Writer.open_dir ~dir ~bootstrap:(fun () -> Xmark_xml.Sax.parse_string st.text) ()
      in
      let commit_ms = ref [] and publish_ms = ref [] in
      Trace.span "probe" (fun () ->
          List.iter
            (fun u ->
              let _, c = Trace.timed_span "writer.commit" (fun () -> Writer.commit w u) in
              let _, p = Trace.timed_span "writer.publish" (fun () -> Writer.publish w) in
              commit_ms := c :: !commit_ms;
              publish_ms := p :: !publish_ms)
            updates);
      Writer.close w;
      let log = Xmark_wal.Log.create ~path:(scratch_path "probe.log") ~base_len:0 ~base_crc:0 in
      let append_ms =
        Trace.span "probe" (fun () ->
            List.map
              (fun u ->
                snd
                  (Trace.timed_span "wal.append" (fun () ->
                       ignore (Xmark_wal.Log.append log (record_op u)))))
              updates)
      in
      Xmark_wal.Log.close log;
      session_layers @ read_layers
      @ [ ("persist.snapshot_write_ms", write_ms);
          ("writer.commit_ms", Stat.median !commit_ms);
          ("writer.publish_ms", Stat.median !publish_ms);
          ("wal.append_ms", Stat.median append_ms) ]
    end
  in
  (* recovery gate: the WAL replays every acknowledged commit and the
     recovered store answers like the final epoch *)
  Writer.close st.writer;
  let (recovered, info), replay_ms =
    Trace.timed (fun () ->
        Writer.open_dir ~dir:st.dir ~bootstrap:(fun () -> failwith "WAL directory vanished") ())
  in
  let session, publish_ms = Trace.timed (fun () -> Writer.publish recovered) in
  let n_committed = List.length !committed in
  if info.Writer.replayed <> n_committed then
    fail
      (Printf.sprintf "recovery replayed %d records, %d were committed" info.Writer.replayed
         n_committed);
  List.iter
    (fun (q, d) ->
      if Writer.digest_of_session session q <> d then
        fail (Printf.sprintf "recovered store answers Q%d differently" q))
    final_digests;
  Writer.close recovered;
  let layers =
    if not cfg.trace then []
    else begin
      let traced = List.filter (fun o -> o.traced) ops in
      let writes = List.filter (fun o -> o.kind = Write) traced in
      let parts name = List.filter_map (part name) traced in
      let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name stats_delta)) in
      let hits = totals1.Server.plan_hits - totals0.Server.plan_hits in
      let misses = totals1.Server.plan_misses - totals0.Server.plan_misses in
      Samples.medians samples
      @ [ ("service.queue_ms", Stat.median (parts "queue"));
          ("service.server_ms", Stat.median (parts "server"));
          ("service.plan_hit_ratio", Stat.ratio (float_of_int hits) (float_of_int (hits + misses)));
          ( "service.conflict_ratio",
            Stat.ratio (float_of_int (List.length (parts "rejected"))) (float_of_int (List.length writes)) );
          ("wal.bytes_per_commit", Stat.ratio (count "wal_bytes") (count "wal_appends"));
          ("writer.replay_ms_per_record", Stat.ratio replay_ms (float_of_int info.Writer.replayed));
          ("writer.recover_ms", replay_ms +. publish_ms);
          ("harness.unattributed_pct", unattributed_pct (Trace.all ()));
          ("harness.trace_overhead_pct", trace_overhead_pct ops) ]
      @ runtime_layers segs @ probe_layers
    end
  in
  remove_tree st.dir;
  {
    setup_ms;
    load_ms;
    ops;
    ops_per_s;
    rss_mb = peak_rss_mb ();
    gate_failures = List.rev !failures;
    layers;
  }
