(* sharded-k2: System D partitioned into two shard snapshots, served by
   two forked workers ([Fleet.start]) and queried through one [Scatter]
   coordinator with one connection per shard.

   The load is an open loop: requests arrive as a Poisson process at
   [rate] per second whatever the service does, drawn from
   Workload.interactive_mix in stratified cycles (every class exactly as
   often as its weight per cycle of 50, order from the seed).  At most two
   requests are in flight, one per sender domain; a request that finds
   both senders busy waits, and that wait is part of its latency, which
   runs from the moment the request was due. *)

module Runner = Xmark_core.Runner
module Stats = Xmark_stats
module Server = Xmark_service.Server
module Workload = Xmark_service.Workload
module P = Xmark_service.Protocol
module Merge = Xmark_core.Merge
module Prng = Xmark_prng.Prng
module Wire = Xmark_wire
module Partitioner = Xmark_shard.Partitioner
module Scatter = Xmark_shard.Scatter
open Bench

let k = 2
let rate = 40.0
let senders = 2
let latency_limit_ms = 100.0

let reads = List.filter_map (function Workload.Query q, _ -> Some q | _ -> None) Workload.interactive_mix

type state = { fleet : Wire.Fleet.t; scatter : Scatter.t; files : string array }

(* One query per merge class, for the wire probe. *)
let class_queries = [ ("concat", 1); ("sum", 5); ("join", 8); ("ordered-merge", 19); ("sum-parts", 20) ]

(* The traced run's probes: restore shard 0 in-process and run the mix
   on it, then replay [Scatter.run] by hand — each leg a timed
   [Client.call] of a [Partial] request on a connection of our own, then
   a timed [Merge.gather]. *)
let probes st ~fail ~check =
  let session, read_layers =
    Trace.span "probe" (fun () -> Probes.snapshot_read st.files.(0) Runner.D)
  in
  let session_layers = Probes.session session reads in
  let clients = Array.of_list (List.map Wire.Client.connect (Wire.Fleet.worker_addrs st.fleet)) in
  let overhead = ref [] and bytes = ref [] and queue = ref [] and server = ref [] in
  let hits = ref 0 and legs = ref 0 and leg_max = ref [] and skew = ref [] in
  let gather = Samples.create () in
  Trace.span "probe" (fun () ->
      for _ = 1 to Probes.rounds do
        List.iter
          (fun (cls, q) ->
            let per_shard = Array.make k 0.0 in
            let leg op shard =
              let req = P.request (P.Partial { shard; op }) in
              let resp, ms =
                Trace.timed_span "wire.call" (fun () -> Wire.Client.call clients.(shard) req)
              in
              per_shard.(shard) <- per_shard.(shard) +. ms;
              match resp with
              | Ok (P.Partial_reply p) ->
                  overhead := (ms -. p.P.latency_ms) :: !overhead;
                  bytes := float_of_int (String.length (Wire.Wire_codec.encode_response resp)) :: !bytes;
                  queue := p.P.queue_ms :: !queue;
                  server := (p.P.latency_ms -. p.P.queue_ms) :: !server;
                  incr legs;
                  if p.P.plan_hit then incr hits;
                  p.P.payload
              | Ok _ | Error _ ->
                  fail (Printf.sprintf "probe: Q%d leg on shard %d failed" q shard);
                  []
            in
            let parts = List.map (fun op -> List.init k (leg op)) (Merge.ops q) in
            let (_, canonical), ms =
              Trace.timed_span "merge.gather" (fun () -> Merge.gather q parts)
            in
            check q (Digest.to_hex (Digest.string canonical));
            Samples.add gather cls ms;
            let slowest = Array.fold_left Float.max 0.0 per_shard in
            leg_max := slowest :: !leg_max;
            skew := Stat.ratio slowest (Array.fold_left ( +. ) 0.0 per_shard /. float_of_int k) :: !skew)
          class_queries
      done);
  Array.iter Wire.Client.close clients;
  session_layers @ read_layers
  @ [ ("wire.leg_overhead_ms", Stat.median !overhead);
      ("wire.reply_bytes", Stat.mean !bytes);
      ("service.queue_ms", Stat.median !queue);
      ("service.server_ms", Stat.median !server);
      ("service.plan_hit_ratio", Stat.ratio (float_of_int !hits) (float_of_int !legs));
      ("shard.leg_max_ms", Stat.median !leg_max);
      ("shard.leg_skew", Stat.median !skew) ]
  @ List.map (fun (cls, _) -> ("merge.gather_ms." ^ cls, Samples.median gather cls)) class_queries

let run cfg ~factor =
  let failures = ref [] and fail_lock = Mutex.create () in
  let fail msg = Mutex.protect fail_lock (fun () -> failures := msg :: !failures) in
  let samples = Samples.create () in
  let sample = Samples.add samples in
  let check q digest =
    if digest <> Pinned.digest ~factor q then
      fail (Printf.sprintf "scatter Q%d answered %s, single store %s" q digest (Pinned.digest ~factor q))
  in
  let build rep =
    let text, gen_ms =
      Trace.timed_span "xmlgen.generate" (fun () -> Xmark_xmlgen.Generator.to_string ~factor ())
    in
    let t_load = Trace.now_ns () in
    let sax0 = Stats.total "sax_events" in
    let dom, parse_ms =
      Trace.timed_span "xml.parse" (fun () -> Xmark_xml.Sax.parse_string text)
    in
    let partition, partition_ms =
      Trace.timed_span "shard.partition" (fun () -> Partitioner.partition ~k dom)
    in
    let build_ms = ref 0.0 and write_ms = ref 0.0 and db_bytes = ref 0 in
    let files =
      Array.mapi
        (fun i shard ->
          let session, ms =
            Trace.timed_span "store.build" (fun () ->
                Runner.load ~source:(`Dom shard.Partitioner.root) Runner.D)
          in
          build_ms := !build_ms +. ms;
          db_bytes := !db_bytes + session.Runner.load_stats.Runner.db_bytes;
          let file = scratch_path (Printf.sprintf "shard-%d-%d.xms" rep i) in
          let (), ms =
            Trace.timed_span "persist.snapshot_write" (fun () -> Runner.save_snapshot session file)
          in
          write_ms := !write_ms +. ms;
          file)
        partition.Partitioner.shards
    in
    let load_ms = Trace.ms_since t_load in
    sample "xmlgen.generate_ms" gen_ms;
    sample "xml.parse_ms" parse_ms;
    sample "xml.sax_events" (float_of_int (Stats.total "sax_events" - sax0));
    sample "shard.partition_ms" partition_ms;
    sample "store.build_ms" !build_ms;
    sample "persist.snapshot_write_ms" (!write_ms /. float_of_int k);
    sample "store.bytes_per_doc_byte" (float_of_int !db_bytes /. float_of_int (String.length text));
    let make_server i = Server.create ~shard:i (Runner.load ~source:(`Snapshot files.(i)) Runner.D) in
    let front = Wire.Addr.Unix_sock (scratch_path (Printf.sprintf "front-%d.sock" rep)) in
    let fleet, ready_ms =
      Trace.timed_span "shard.workers_ready" (fun () -> Wire.Fleet.start ~workers:k ~make_server front)
    in
    sample "shard.workers_ready_ms" ready_ms;
    let scatter =
      Scatter.create (List.map (fun a -> Scatter.Remote a) (Wire.Fleet.worker_addrs fleet))
    in
    Trace.span "warmup" (fun () ->
        List.iter
          (fun q ->
            match Trace.span "shard.scatter" (fun () -> Scatter.run scatter q) with
            | Ok a -> check q a.Scatter.digest
            | Error e -> fail (Printf.sprintf "warm-up Q%d: %s" q (P.error_to_string e)))
          reads);
    ( { fleet; scatter; files },
      load_ms,
      fun () ->
        Scatter.close scatter;
        Wire.Fleet.stop fleet;
        Array.iter remove_tree files )
  in
  let st, setup_ms, load_ms = repeat_setup cfg build in
  let rng = Prng.create ~seed:(Int64.of_int cfg.seed) () in
  let cycle =
    Array.of_list
      (List.concat_map
         (function Workload.Query q, w -> List.init w (fun _ -> q) | _ -> [])
         Workload.interactive_mix)
  in
  let req = ref 0 in
  (* The arrival schedule: [rate * seconds] requests at offsets (ms from
     the phase start) that are a Poisson process conditioned on its
     count — sorted uniform draws over the phase — so every seed offers
     the same load over the same span; and the query each one asks. *)
  let schedule seconds =
    let n = max 1 (int_of_float (rate *. seconds)) in
    let queries =
      Array.concat
        (List.init ((n / Array.length cycle) + 1) (fun _ ->
             let c = Array.copy cycle in
             Prng.shuffle rng c;
             c))
    in
    let offsets = Array.init n (fun _ -> Prng.float rng (seconds *. 1000.0)) in
    Array.sort Float.compare offsets;
    Array.init n (fun i -> (offsets.(i), queries.(i)))
  in
  let phase ~traced seconds =
    let plan = schedule seconds in
    let next = ref 0 and lock = Mutex.create () in
    let t0 = Int64.add (Trace.now_ns ()) 1_000_000L in
    let sender () =
      let words0 = Gc.minor_words () in
      let mine = ref [] in
      let rec loop () =
        let pick = Trace.now_ns () in
        match
          Mutex.protect lock (fun () ->
              if !next >= Array.length plan then None
              else begin
                let i = !next in
                incr next;
                incr req;
                Some (plan.(i), !req)
              end)
        with
        | None -> ()
        | Some ((offset, q), r) ->
            let due = Int64.add t0 (Int64.of_float (offset *. 1e6)) in
            let wait = Trace.ms_between (Trace.now_ns ()) due in
            if wait > 0.0 then Unix.sleepf (wait /. 1000.0);
            let send = Trace.now_ns () in
            let answer = Scatter.run st.scatter q in
            let stop = Trace.now_ns () in
            if !Trace.enabled then begin
              let id = Trace.record ~req:r "op" due stop in
              ignore (Trace.record ~parent:id ~req:r "harness.wait" due send);
              ignore (Trace.record ~parent:id ~req:r "shard.scatter" send stop)
            end;
            let ok =
              match answer with
              | Ok a ->
                  check q a.Scatter.digest;
                  true
              | Error e ->
                  Printf.eprintf "Q%d failed: %s\n%!" q (P.error_to_string e);
                  false
            in
            let late = Trace.ms_between (if Int64.compare pick due > 0 then pick else due) send in
            mine :=
              { cls = Printf.sprintf "Q%d" q; system = ""; kind = kind_of_query q;
                ms = Trace.ms_between due stop; ok; traced;
                parts = [ ("late", late); ("wait", Trace.ms_between due send) ];
                counters = []; items = 0 }
              :: !mine;
            loop ()
      in
      loop ();
      (!mine, Gc.minor_words () -. words0, Stats.export_and_clear ())
    in
    let domains = List.init senders (fun _ -> Domain.spawn sender) in
    let results = List.map Domain.join domains in
    List.iter (fun (_, _, s) -> Stats.absorb s) results;
    ( List.concat_map (fun (ops, _, _) -> ops) results,
      List.fold_left (fun acc (_, w, _) -> acc +. w) 0.0 results,
      Trace.ms_since t0 /. 1000.0 )
  in
  let c0 = Stats.snapshot () in
  let segs = run_phase cfg phase in
  let ops = phase_ops segs in
  let stats_delta = Stats.since c0 in
  (* an open loop completes what it is offered: answers per second of
     phase *)
  let ops_per_s =
    Stat.ratio
      (float_of_int (List.length (answered ops)))
      (List.fold_left (fun acc s -> acc +. s.extra) 0.0 segs)
  in
  let late_p95 = Stat.percentile 95.0 (List.filter_map (part "late") ops) in
  if late_p95 > 1.0 then
    Printf.eprintf "INVALID: the open-loop generator ran late (p95 %.3f ms > 1 ms)\n%!" late_p95;
  let read_p95 = Stat.percentile 95.0 (List.map (fun o -> o.ms) (answered ops)) in
  Printf.eprintf "sharded-k2: read p95 %.1f ms (limit %.0f ms) at %.0f req/s over %d requests%s\n%!"
    read_p95 latency_limit_ms rate (List.length ops)
    (if read_p95 > latency_limit_ms then " -- LIMIT MISSED" else "");
  let probe_layers = if cfg.trace then probes st ~fail ~check else [] in
  let rss =
    List.fold_left
      (fun acc pid -> acc +. peak_rss_mb ~pid:(string_of_int pid) ())
      (peak_rss_mb ()) (Wire.Fleet.pids st.fleet)
  in
  Scatter.close st.scatter;
  Wire.Fleet.stop st.fleet;
  Array.iter remove_tree st.files;
  let layers =
    if not cfg.trace then []
    else begin
      let traced = List.filter (fun o -> o.traced) ops in
      let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name stats_delta)) in
      Samples.medians samples
      @ [ ( "shard.broadcast_bytes_per_query",
            Stat.ratio (count "broadcast_bytes") (float_of_int (List.length traced)) );
          ("harness.late_p95_ms", late_p95);
          ("harness.unattributed_pct", unattributed_pct (Trace.all ()));
          ("harness.trace_overhead_pct", trace_overhead_pct ops) ]
      @ runtime_layers segs @ probe_layers
    end
  in
  {
    setup_ms;
    load_ms;
    ops;
    ops_per_s;
    rss_mb = rss;
    gate_failures = List.rev !failures;
    layers;
  }
