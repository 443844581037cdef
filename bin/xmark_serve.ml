(* xmark_serve — drive the concurrent query service and report
   throughput and tail latency, in process or over the wire.

   Six modes, selected by --listen / --connect / --fleet / --shards /
   --checkpoint:

   - default: load each selected system once and sweep --clients against
     it in process (the PR-5 behavior).  With --wal DIR the sweep runs
     against ONE writable server: updates go through the write-ahead log
     under DIR (durable before acknowledged) and every commit publishes
     a new store epoch; restarting with the same DIR recovers the
     committed state by replaying the log over the base snapshot.
   - --listen ADDR: load one system and serve it over the binary wire
     protocol until killed (writable when --wal is given).
   - --connect ADDR: load nothing; run the same closed-loop workload
     sweep as a socket client against a server started elsewhere.  A
     write mix needs explicit --auctions/--persons id bounds, since the
     client cannot inspect the remote store.
   - --fleet N: fork N read-only worker processes behind a round-robin
     front door; incompatible with --wal (workers cannot share a
     single-writer log).
   - --shards K: partition the document into K shards, serve each from
     its own forked worker, and run Q1-Q20 scatter-gather against the
     single-store digests.
   - --wal DIR --checkpoint: fold the log into a fresh base snapshot and
     exit.

   Sweeping --clients 1,2,4,8 produces the client-scaling curve: total
   work is held constant, so req/s across runs is directly comparable.
   The per-run report (stdout) and the --stats-json dump carry
   p50/p90/p99/max latency overall and per operation class — reads and
   writes (commit = fsync + publish) on separate histograms — plus
   typed failure counts (timeouts, admission rejections, write
   conflicts).  Result digests are gated per (class, epoch): two
   answers for the same query against the same published store must
   agree across all clients, domains and runs — the binary exits
   nonzero if concurrency (or the wire, or the write path) ever changed
   an answer within an epoch.

   Every request executes inline on the domain or thread that issued it:
   local runs scale with the workload's client domains, fleet workers
   with their connection threads and processes. *)

open Cmdliner
module Cli = Xmark_core.Cli
module Runner = Xmark_core.Runner
module Timing = Xmark_core.Timing
module Provenance = Xmark_core.Provenance
module Server = Xmark_service.Server
module Writer = Xmark_service.Writer
module Workload = Xmark_service.Workload
module Wire = Xmark_wire
module Snapshot = Xmark_persist.Snapshot

let letter sys =
  let name = Runner.system_name sys in
  String.sub name (String.length name - 1) 1

(* Wire modes serve exactly one backend: an explicit single --systems
   entry wins, otherwise System D (the paper's main-memory reference). *)
let pick_system = function [ sys ] -> sys | _ -> Runner.D

let load_session factor doc snapshot sys =
  let source =
    match (snapshot, doc) with
    | Some p, _ -> `Snapshot p
    | None, Some f -> `File f
    | None, None -> `Text (Xmark_core.Experiments.document factor)
  in
  Runner.load ~source sys

let server_config ~nclients ~max_inflight ~queue_depth ~deadline ~plan_cache =
  {
    Server.max_inflight = (if max_inflight > 0 then max_inflight else nclients);
    queue_depth;
    deadline_ms = (if deadline > 0.0 then Some deadline else None);
    plan_cache;
  }

(* Socket runs report no server-side counters: the plan cache lives in
   the (possibly remote, possibly plural) server process. *)
let zero_totals =
  {
    Server.served = 0;
    committed = 0;
    rejected = 0;
    write_rejected = 0;
    timed_out = 0;
    failed = 0;
    plan_hits = 0;
    plan_misses = 0;
    plan_evictions = 0;
  }

(* --- the write path -------------------------------------------------------- *)

let level_of_system sys =
  match sys with
  | Runner.D -> `Full
  | Runner.E -> `Id_only
  | Runner.F -> `Plain
  | _ ->
      failwith
        (Printf.sprintf
           "--wal needs a main-memory system (D, E or F), not %s"
           (Runner.system_name sys))

let open_writer ~factor ~doc ~sys ~dir =
  let level = level_of_system sys in
  let bootstrap () =
    let text =
      match doc with
      | Some f -> In_channel.with_open_bin f In_channel.input_all
      | None -> Xmark_core.Experiments.document factor
    in
    Xmark_xml.Sax.parse_string text
  in
  let writer, info = Writer.open_dir ~level ~dir ~bootstrap () in
  Printf.printf "wal %s: %s\n%!" dir
    (if info.Writer.fresh then "fresh state (base snapshot written, empty log)"
     else
       Printf.sprintf "recovered — %d record(s) replayed%s, resuming at lsn %d"
         info.Writer.replayed
         (if info.Writer.truncated_bytes > 0 then
            Printf.sprintf ", %d torn byte(s) truncated"
              info.Writer.truncated_bytes
          else "")
         (Writer.last_lsn writer));
  writer

(* The id space workload writes draw from: explicit flags win, else the
   bounds are counted off the writer's own tree. *)
let resolve_write_targets ~auctions ~persons writer =
  let auto_a, auto_p = Writer.write_targets writer in
  ( (if auctions > 0 then auctions else auto_a),
    (if persons > 0 then persons else auto_p) )

(* One (system, client-count) cell: a server fresh from [make_server]
   (read-only case) or wrapping the shared writer. *)
let run_one ~requests ~mix ~write_targets ~deadline ~max_inflight
    ~queue_depth ~plan_cache ~seed ~make_server nclients =
  let config =
    server_config ~nclients ~max_inflight ~queue_depth ~deadline ~plan_cache
  in
  let server = make_server ~config in
  let report =
    Workload.run ?seed ?write_targets ~clients:nclients ~requests ~mix server
  in
  (report, Server.totals server)

(* --- JSON rendering -------------------------------------------------------- *)

let quantiles_json h =
  let p q = Timing.Histogram.percentile h q in
  Printf.sprintf
    "{\"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, \"max\": %.3f, \"mean\": %.3f}"
    (p 50.0) (p 90.0) (p 99.0)
    (Timing.Histogram.max_ms h)
    (Timing.Histogram.mean_ms h)

let class_json (c : Workload.class_stats) =
  let p q = Timing.Histogram.percentile c.Workload.cs_hist q in
  Printf.sprintf
    "{\"class\": \"%s\", \"count\": %d, \"ok\": %d, \"timeouts\": %d, \"rejected\": %d, \
     \"conflicts\": %d, \"failed\": %d, \"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, \
     \"max\": %.3f, \"epochs\": %d, \"digest_mismatches\": %d}"
    (Workload.class_label c.Workload.cs_class)
    c.Workload.cs_count c.Workload.cs_ok c.Workload.cs_timeouts
    c.Workload.cs_rejected c.Workload.cs_conflicts c.Workload.cs_failed
    (p 50.0) (p 90.0) (p 99.0)
    (Timing.Histogram.max_ms c.Workload.cs_hist)
    (Hashtbl.length c.Workload.cs_digests) c.Workload.cs_digest_mismatches

let run_json ((r : Workload.report), (totals : Server.totals)) =
  Printf.sprintf
    "{\"clients\": %d, \"requests\": %d, \"ok\": %d, \"committed\": %d, \
     \"timeouts\": %d, \"rejected\": %d, \"conflicts\": %d, \"failed\": %d, \
     \"digest_mismatches\": %d, \"elapsed_s\": %.3f, \"rps\": %.1f, \
     \"plan_hits\": %d, \"plan_misses\": %d, \"latency_ms\": %s, \
     \"write_latency_ms\": %s, \"per_query\": [%s]}"
    r.Workload.r_clients r.Workload.r_requests r.Workload.r_ok
    r.Workload.r_committed r.Workload.r_timeouts r.Workload.r_rejected
    r.Workload.r_conflicts r.Workload.r_failed r.Workload.r_digest_mismatches
    r.Workload.r_elapsed_s r.Workload.r_rps totals.Server.plan_hits
    totals.Server.plan_misses
    (quantiles_json r.Workload.r_hist)
    (quantiles_json r.Workload.r_whist)
    (String.concat ", " (List.map class_json r.Workload.r_classes))

let write_stats_json ~factor ~mix ~deadline ~requests ~transport sys_objs = function
  | None -> ()
  | Some file ->
      let json =
        Printf.sprintf
          "{\"provenance\": %s, \"factor\": %g, \"mix\": \"%s\", \
           \"deadline_ms\": %g, \"duration_requests\": %d, \"transport\": \"%s\", \
           \"systems\": [%s]}\n"
          (Provenance.json ~factor ~jobs:1 ~runs:1 ())
          factor (Workload.mix_to_string mix) deadline requests transport
          (String.concat ", " sys_objs)
      in
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc json);
      Printf.eprintf "wrote %s (%d system object(s))\n%!" file (List.length sys_objs)

(* --- digest agreement across a system's runs ------------------------------- *)

(* Same query against the same published epoch => same answer, at any
   concurrency level and over any transport: the load-independence half
   of the acceptance contract, checked here so a sweep that corrupts a
   result cannot exit 0.  Under writes the store legitimately changes —
   the epoch key is what keeps the gate exact instead of vacuous. *)
let check_digests label runs =
  let seen : (string * int, string) Hashtbl.t = Hashtbl.create 64 in
  let bad = ref 0 in
  List.iter
    (fun (r, _) ->
      bad := !bad + r.Workload.r_digest_mismatches;
      List.iter
        (fun (c : Workload.class_stats) ->
          let cls = Workload.class_label c.Workload.cs_class in
          Hashtbl.iter
            (fun epoch d ->
              match Hashtbl.find_opt seen (cls, epoch) with
              | Some d' when d' <> d ->
                  incr bad;
                  Printf.eprintf
                    "%s %s at epoch %d: digest differs across runs\n" label cls
                    epoch
              | Some _ -> ()
              | None -> Hashtbl.replace seen (cls, epoch) d)
            c.Workload.cs_digests)
        r.Workload.r_classes)
    runs;
  !bad

let digest_gate mismatches =
  if mismatches > 0 then begin
    Printf.eprintf "FAIL: %d result digest mismatch(es) under concurrency\n"
      mismatches;
    1
  end
  else 0

(* --- wire modes ------------------------------------------------------------ *)

let parse_addr s =
  match Wire.Addr.of_string s with Ok a -> a | Error m -> failwith m

(* The socket side of the sweep: same mixes, same histograms, same
   digest gate — the transport is the only variable. *)
let sweep_socket ~label ~clients ~requests ~mix ~write_targets ~seed ~factor
    ~deadline ~stats_json_file addr =
  let runs =
    List.map
      (fun nclients ->
        let report =
          Workload.run_transport ?seed ?write_targets ~clients:nclients
            ~requests ~mix
            (Wire.Client.transport addr)
        in
        Format.printf "%a%!" Workload.pp_report report;
        (report, zero_totals))
      clients
  in
  let mismatches = check_digests label runs in
  let sys_obj =
    Printf.sprintf "{\"system\": \"%s\", \"runs\": [%s]}" label
      (String.concat ", " (List.map run_json runs))
  in
  write_stats_json ~factor ~mix ~deadline ~requests
    ~transport:(Wire.Addr.to_string addr) [ sys_obj ] stats_json_file;
  (* a sweep where nothing ever succeeded is a failed run, digests or
     not — e.g. --connect against an address nobody serves *)
  if
    List.for_all
      (fun (r, _) -> r.Workload.r_ok + r.Workload.r_committed = 0)
      runs
  then begin
    Printf.eprintf "FAIL: no request succeeded against %s\n"
      (Wire.Addr.to_string addr);
    1
  end
  else digest_gate mismatches

let serve_mode ~factor ~doc ~snapshot ~systems ~max_inflight ~queue_depth
    ~deadline ~plan_cache ~wal addr_s =
  let sys = pick_system systems in
  let config =
    server_config ~nclients:4 ~max_inflight ~queue_depth ~deadline ~plan_cache
  in
  let addr = parse_addr addr_s in
  let server, close_writer =
    match wal with
    | None -> (Server.create ~config (load_session factor doc snapshot sys), ignore)
    | Some dir ->
        if snapshot <> None then
          failwith "--wal manages its own base snapshot; drop --snapshot";
        let writer = open_writer ~factor ~doc ~sys ~dir in
        (Server.create_writable ~config writer, fun () -> Writer.close writer)
  in
  Printf.printf "serving %s%s on %s\n%!" (Runner.system_name sys)
    (if Server.writable server then
       Printf.sprintf " (writable, epoch %d)" (Server.epoch server)
     else "")
    (Wire.Addr.to_string addr);
  Fun.protect ~finally:close_writer (fun () ->
      Wire.Wire_server.serve addr server);
  0

let rm_quiet path = try Sys.remove path with Sys_error _ -> ()

let fleet_mode ~workers ~listen ~factor ~doc ~snapshot ~systems ~max_inflight
    ~queue_depth ~deadline ~plan_cache ~clients ~requests ~mix ~seed
    ~stats_json_file =
  (* Resolve the snapshot every worker restores.  All of this runs
     before Fleet.start forks, while the parent is still
     single-threaded. *)
  let snap_path, sys, cleanup_snap =
    match snapshot with
    | Some path ->
        let sysc, kind, bytes = Snapshot.probe path in
        Printf.printf "fleet: snapshot %s (System %c, %s payload, %d bytes)\n%!"
          path sysc kind bytes;
        let sys =
          match systems with
          | [ s ] -> s
          | _ -> (
              match Cli.system_of_string (String.make 1 sysc) with
              | Ok s -> s
              | Error (`Msg m) -> failwith m)
        in
        (path, sys, ignore)
    | None ->
        let sys = pick_system systems in
        let session = load_session factor doc None sys in
        let path = Filename.temp_file "xmark_fleet" ".xms" in
        Runner.save_snapshot session path;
        Printf.printf "fleet: wrote bootstrap snapshot %s (System %s)\n%!" path
          (letter sys);
        (path, sys, fun () -> rm_quiet path)
  in
  let config =
    server_config
      ~nclients:(max 4 (List.fold_left max 1 clients))
      ~max_inflight ~queue_depth ~deadline ~plan_cache
  in
  (* Runs in worker i after the fork: restore (read-only — all workers
     share the file) and serve inline on connection threads. *)
  let make_server _i =
    Server.create ~config (Runner.load ~source:(`Snapshot snap_path) sys)
  in
  let front, cleanup_front =
    match listen with
    | Some a -> (parse_addr a, ignore)
    | None ->
        let dir = Filename.temp_file "xmark_fleet" ".d" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        ( Wire.Addr.Unix_sock (Filename.concat dir "front.sock"),
          fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> () )
  in
  let fleet = Wire.Fleet.start ~workers ~make_server front in
  Fun.protect
    ~finally:(fun () ->
      Wire.Fleet.stop fleet;
      cleanup_snap ();
      cleanup_front ())
    (fun () ->
      Printf.printf "fleet: %d worker(s) (pids %s) behind %s\n%!" workers
        (String.concat ","
           (List.map string_of_int (Wire.Fleet.pids fleet)))
        (Wire.Addr.to_string front);
      match listen with
      | Some _ ->
          let quit = ref false in
          let stop _ = quit := true in
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          while not !quit do
            Unix.sleepf 0.2
          done;
          0
      | None ->
          sweep_socket
            ~label:(Printf.sprintf "%s-fleet%d" (letter sys) workers)
            ~clients ~requests ~mix ~write_targets:None ~seed ~factor
            ~deadline ~stats_json_file front)

(* --- sharded scatter-gather ------------------------------------------------ *)

(* --shards K: partition, persist one snapshot per shard, serve each
   shard from its own forked worker (which loads its snapshot), and
   execute Q1-Q20 scatter-gather — gating every answer against the
   single-store digest. *)
let shards_mode ~k ~factor ~doc ~systems ~max_inflight ~queue_depth ~deadline
    ~plan_cache =
  let sys = pick_system systems in
  let root =
    match doc with
    | Some f ->
        Xmark_xml.Sax.parse_string
          (In_channel.with_open_bin f In_channel.input_all)
    | None -> Xmark_xmlgen.Generator.to_dom ~factor ()
  in
  let partition, part_span =
    Timing.measure (fun () -> Xmark_shard.Partitioner.partition ~k root)
  in
  let dir = Filename.temp_file "xmark_shards" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let cleanup_dir () =
    Array.iter
      (fun f -> rm_quiet (Filename.concat dir f))
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup_dir (fun () ->
      Printf.printf
        "shards: %d slice(s) of System %s under %s (partitioned in %.1f ms)\n%!"
        k (letter sys) dir part_span.Timing.wall_ms;
      let files =
        Array.mapi
          (fun i shard ->
            let file = Filename.concat dir (Printf.sprintf "shard-%d.xms" i) in
            Runner.save_snapshot
              (Runner.load ~source:(`Dom shard.Xmark_shard.Partitioner.root) sys)
              file;
            Printf.printf "  shard %d: %s, %d bytes, entities %s\n%!" i
              (Filename.basename file) (Unix.stat file).Unix.st_size
              (String.concat " "
                 (List.filter_map
                    (fun (tag, (start, count)) ->
                      if count = 0 then None
                      else
                        Some (Printf.sprintf "%s[%d,%d)" tag start (start + count)))
                    shard.Xmark_shard.Partitioner.ranges));
            file)
          partition.Xmark_shard.Partitioner.shards
      in
      (* the single-store reference this mode gates against; loaded
         before the fork so the comparison cannot drift *)
      let reference = Runner.load ~source:(`Dom root) sys in
      let config =
        server_config ~nclients:4 ~max_inflight ~queue_depth ~deadline
          ~plan_cache
      in
      let make_server i =
        Server.create ~shard:i ~config
          (Runner.load ~source:(`Snapshot files.(i)) sys)
      in
      let front =
        Wire.Addr.Unix_sock (Filename.concat dir "front.sock")
      in
      let fleet = Wire.Fleet.start ~workers:k ~make_server front in
      Fun.protect
        ~finally:(fun () -> Wire.Fleet.stop fleet)
        (fun () ->
          let scatter =
            Xmark_shard.Scatter.create
              (List.map
                 (fun a -> Xmark_shard.Scatter.Remote a)
                 (Wire.Fleet.worker_addrs fleet))
          in
          Fun.protect
            ~finally:(fun () -> Xmark_shard.Scatter.close scatter)
            (fun () ->
              Printf.printf
                "shards: %d worker(s) (pids %s), scatter-gather over Q1-Q20\n%!"
                k
                (String.concat ","
                   (List.map string_of_int (Wire.Fleet.pids fleet)));
              let bad = ref 0 in
              List.iter
                (fun q ->
                  let want =
                    Digest.to_hex
                      (Digest.string (Runner.canonical (Runner.run_session reference q)))
                  in
                  match
                    Timing.measure (fun () ->
                        Xmark_shard.Scatter.run scatter q)
                  with
                  | Ok a, span ->
                      let same = a.Xmark_shard.Scatter.digest = want in
                      if not same then incr bad;
                      Printf.printf "  Q%-2d %4d item(s)  %8.2f ms  %s  %s\n%!"
                        q a.Xmark_shard.Scatter.items span.Timing.wall_ms
                        (Xmark_core.Merge.class_name q)
                        (if same then "digest ok" else "DIGEST MISMATCH")
                  | Error e, _ ->
                      incr bad;
                      Printf.printf "  Q%-2d FAILED: %s\n%!" q
                        (Server.error_to_string e))
                (List.init 20 (fun i -> i + 1));
              if !bad > 0 then begin
                Printf.eprintf
                  "FAIL: %d of 20 sharded answers diverged from the single store\n"
                  !bad;
                1
              end
              else begin
                Printf.printf
                  "all 20 sharded answers byte-identical to the single store\n%!";
                0
              end)))

(* --- local (in-process) sweeps --------------------------------------------- *)

let local_mode ~factor ~clients ~requests ~mix ~deadline ~max_inflight
    ~queue_depth ~plan_cache ~seed ~systems ~doc ~snapshot ~stats_json_file =
  let mismatches = ref 0 in
  let sys_objs =
    List.map
      (fun sys ->
        let session = load_session factor doc snapshot sys in
        Printf.printf "%s (%s)\n%!" (Runner.system_name sys)
          (Runner.system_description sys);
        let runs =
          List.map
            (fun nclients ->
              let ((report, _) as cell) =
                run_one ~requests ~mix ~write_targets:None ~deadline
                  ~max_inflight ~queue_depth ~plan_cache ~seed
                  ~make_server:(fun ~config -> Server.create ~config session)
                  nclients
              in
              Format.printf "%a%!" Workload.pp_report report;
              cell)
            clients
        in
        mismatches :=
          !mismatches + check_digests ("System " ^ letter sys) runs;
        Printf.sprintf "{\"system\": \"%s\", \"runs\": [%s]}" (letter sys)
          (String.concat ", " (List.map run_json runs)))
      systems
  in
  write_stats_json ~factor ~mix ~deadline ~requests ~transport:"local" sys_objs
    stats_json_file;
  digest_gate !mismatches

(* The writable sweep: ONE writer (one log, one master tree) shared by
   every client count — state accumulates across runs exactly like a
   long-lived service, and epochs keep increasing, so the per-epoch
   digest gate spans the whole sweep. *)
let local_wal_mode ~factor ~clients ~requests ~mix ~deadline
    ~max_inflight ~queue_depth ~plan_cache ~seed ~systems ~doc ~snapshot
    ~auctions ~persons ~dir ~stats_json_file =
  if snapshot <> None then
    failwith "--wal manages its own base snapshot; drop --snapshot";
  let sys = pick_system systems in
  let writer = open_writer ~factor ~doc ~sys ~dir in
  Fun.protect
    ~finally:(fun () -> Writer.close writer)
    (fun () ->
      let n_auctions, n_persons =
        resolve_write_targets ~auctions ~persons writer
      in
      Printf.printf
        "%s (%s), writable: epoch %d, write targets %d auction(s) x %d person(s)\n%!"
        (Runner.system_name sys)
        (Runner.system_description sys)
        (Writer.last_lsn writer) n_auctions n_persons;
      let runs =
        List.map
          (fun nclients ->
            let ((report, _) as cell) =
              run_one ~requests ~mix
                ~write_targets:(Some (n_auctions, n_persons))
                ~deadline ~max_inflight ~queue_depth ~plan_cache ~seed
                ~make_server:(fun ~config -> Server.create_writable ~config writer)
                nclients
            in
            Format.printf "%a%!" Workload.pp_report report;
            cell)
          clients
      in
      let mismatches = check_digests ("System " ^ letter sys) runs in
      Printf.printf "wal %s: %d record(s) durable at exit\n%!" dir
        (Writer.last_lsn writer);
      let sys_obj =
        Printf.sprintf "{\"system\": \"%s-wal\", \"runs\": [%s]}" (letter sys)
          (String.concat ", " (List.map run_json runs))
      in
      write_stats_json ~factor ~mix ~deadline ~requests ~transport:"local"
        [ sys_obj ] stats_json_file;
      digest_gate mismatches)

(* --wal DIR --checkpoint: one-shot maintenance.  Open (recovering),
   fold the log into a fresh base, report, exit — the next open replays
   nothing and answers identically (test_wal proves the digests). *)
let checkpoint_mode ~factor ~doc ~systems ~dir =
  let sys = pick_system systems in
  let writer = open_writer ~factor ~doc ~sys ~dir in
  Fun.protect
    ~finally:(fun () -> Writer.close writer)
    (fun () ->
      let before = Writer.last_lsn writer in
      match Writer.checkpoint writer with
      | Ok folded ->
          Printf.printf
            "checkpoint %s: %d record(s) folded into a fresh base snapshot \
             (lsn %d -> 0, log truncated)\n%!"
            dir folded before;
          0
      | Error e ->
          Printf.eprintf "checkpoint failed: %s\n" (Server.error_to_string e);
          1)

let run factor clients requests mix_s deadline max_inflight queue_depth
    plan_cache seed systems doc snapshot stats_json_file listen connect fleet
    wal auctions persons shards checkpoint =
  try
    let mix = Workload.mix_of_string mix_s in
    let seed = Option.map Int64.of_int seed in
    if fleet > 0 && wal <> None then
      failwith "--fleet workers are read-only; --wal cannot be combined with --fleet";
    if checkpoint && shards > 0 then
      failwith "--checkpoint compacts a write-ahead log; it cannot be combined with --shards";
    if checkpoint then
      match wal with
      | Some dir -> checkpoint_mode ~factor ~doc ~systems ~dir
      | None -> failwith "--checkpoint needs --wal DIR"
    else if shards > 0 then begin
      if wal <> None then
        failwith "shard workers are read-only; --wal cannot be combined with --shards";
      if fleet > 0 then
        failwith "--shards runs its own per-shard fleet; drop --fleet";
      if listen <> None || connect <> None then
        failwith "--shards runs its own workers and sweep; drop --listen/--connect";
      if snapshot <> None then
        failwith "--shards partitions the document itself; drop --snapshot";
      if Workload.has_writes mix then
        failwith "shard workers are read-only; use a read mix";
      shards_mode ~k:shards ~factor ~doc ~systems ~max_inflight ~queue_depth
        ~deadline ~plan_cache
    end
    else
    match (listen, connect) with
    | Some _, Some _ -> failwith "--connect and --listen are mutually exclusive"
    | None, Some addr_s ->
        if fleet > 0 then failwith "--connect and --fleet are mutually exclusive";
        if wal <> None then
          failwith "--wal opens a local write path; it cannot be combined with --connect";
        let write_targets =
          if not (Workload.has_writes mix) then None
          else if auctions > 0 && persons > 0 then Some (auctions, persons)
          else
            failwith
              "--connect with a write mix needs explicit --auctions and \
               --persons (the client cannot inspect the remote store)"
        in
        sweep_socket ~label:"remote" ~clients ~requests ~mix ~write_targets
          ~seed ~factor ~deadline ~stats_json_file (parse_addr addr_s)
    | listen, None when fleet > 0 ->
        if Workload.has_writes mix then
          failwith "fleet workers are read-only; use a read mix or drop --fleet";
        fleet_mode ~workers:fleet ~listen ~factor ~doc ~snapshot ~systems
          ~max_inflight ~queue_depth ~deadline ~plan_cache ~clients ~requests
          ~mix ~seed ~stats_json_file
    | Some addr_s, None ->
        serve_mode ~factor ~doc ~snapshot ~systems ~max_inflight ~queue_depth
          ~deadline ~plan_cache ~wal addr_s
    | None, None -> (
        match wal with
        | Some dir ->
            local_wal_mode ~factor ~clients ~requests ~mix ~deadline
              ~max_inflight ~queue_depth ~plan_cache ~seed ~systems ~doc
              ~snapshot ~auctions ~persons ~dir ~stats_json_file
        | None ->
            if Workload.has_writes mix then
              failwith
                "a write mix needs a write path: give --wal DIR (local) or \
                 --connect to a writable server";
            local_mode ~factor ~clients ~requests ~mix ~deadline
              ~max_inflight ~queue_depth ~plan_cache ~seed ~systems ~doc
              ~snapshot ~stats_json_file)
  with
  | Failure m | Sys_error m ->
      Printf.eprintf "%s\n" m;
      2
  | Xmark_xml.Sax.Parse_error { line; col; message } ->
      Printf.eprintf "parse error: line %d, column %d: %s\n" line col message;
      1
  | Xmark_persist.Corrupt m ->
      Printf.eprintf "snapshot error: %s\n" m;
      1
  | Runner.Unsupported m ->
      Printf.eprintf "unsupported: %s\n" m;
      3

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Open the write path: keep a base snapshot and a write-ahead log \
           under $(docv) (created if needed; reopened with crash recovery — \
           torn tail truncated, committed records replayed).  Updates in the \
           mix are durable before they are acknowledged, and each commit \
           publishes a new store epoch to readers.  Needs a main-memory \
           system (D, E or F).")

let auctions_arg =
  Arg.(
    value & opt int 0
    & info [ "auctions" ] ~docv:"N"
        ~doc:
          "Id bound for generated writes: bids/closes target \
           $(b,open_auction)$(i,i) with i < $(docv).  0 (default) counts the \
           bound off the writable store; required with --connect.")

let persons_arg =
  Arg.(
    value & opt int 0
    & info [ "persons" ] ~docv:"N"
        ~doc:
          "Id bound for generated writes: bids reference $(b,person)$(i,i) \
           with i < $(docv).  0 (default) counts the bound off the writable \
           store; required with --connect.")

let checkpoint_arg =
  Arg.(
    value & flag
    & info [ "checkpoint" ]
        ~doc:
          "With $(b,--wal DIR): recover the write state, fold the log into a \
           fresh base snapshot, truncate the log, and exit.  The next open \
           replays nothing and answers every query with the same digests.")

let cmd =
  let doc = "serve concurrent queries and updates; measure throughput and tail latency" in
  Cmd.v (Cmd.info "xmark_serve" ~version:"1.0" ~doc)
    Term.(
      const run
      $ Cli.factor ~default:0.01 ()
      $ Cli.clients $ Cli.duration_requests $ Cli.mix
      $ Cli.deadline_ms $ Cli.max_inflight $ Cli.queue_depth $ Cli.plan_cache
      $ Cli.seed $ Cli.systems $ Cli.doc_file $ Cli.snapshot $ Cli.stats_json
      $ Cli.listen $ Cli.connect $ Cli.fleet $ wal_arg $ auctions_arg
      $ persons_arg $ Cli.shards $ checkpoint_arg)

let () = exit (Cmd.eval' cmd)
