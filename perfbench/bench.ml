(* What every workload shares: its settings, the record of one measured
   operation, the metric tables, and the one-line JSON result. *)

type config = {
  seed : int;
  seconds : float;  (* length of the measured phase *)
  trace : bool;  (* report per-layer metrics instead of end-to-end ones *)
  quick : bool;  (* factor 0.001 everywhere: the build-time smoke run *)
}

(* Set-up runs this many times per run; setup_s is the median. *)
let setup_reps cfg = if cfg.quick then 2 else 5

(* A workload's document size: its own factor, or 0.001 when quick. *)
let factor cfg f = if cfg.quick then 0.001 else f

type kind = Path | Join | Write

(* Q8-Q12 correlate two entity sequences; every other query walks
   paths. *)
let kind_of_query q = if q >= 8 && q <= 12 then Join else Path

type op = {
  cls : string;  (* operation class: "Q7", "BID", ... *)
  system : string;  (* storage system letter; "" when served *)
  kind : kind;
  ms : float;  (* latency as its caller saw it *)
  ok : bool;  (* answered, committed, or refused with a typed rejection *)
  traced : bool;  (* ran in a traced segment of a traced run *)
  parts : (string * float) list;  (* per-layer ms of this operation *)
  counters : (string * int) list;  (* Xmark_stats deltas, traced ops only *)
  items : int;
}

type result = {
  setup_ms : float list;  (* one per set-up *)
  load_ms : float list;  (* one per set-up *)
  ops : op list;  (* the measured phase *)
  ops_per_s : float;
  rss_mb : float;
  gate_failures : string list;
  layers : (string * float) list;  (* per-layer metrics this workload ran *)
}

(* --- metric tables: the names and units BENCHMARK.json declares -------- *)

let end_to_end =
  [ ("setup_s", "s"); ("load_s", "s"); ("q_path_geomean_ms", "ms");
    ("q_join_geomean_ms", "ms"); ("ops_per_s", "1/s"); ("peak_rss_mb", "MB") ]

let per_system name = List.map (fun s -> (name ^ "." ^ s)) [ "A"; "B"; "C" ]

let merge_classes = [ "concat"; "sum"; "join"; "ordered-merge"; "sum-parts" ]

let per_layer =
  [ ("xmlgen.generate_ms", "ms"); ("xml.parse_ms", "ms");
    ("xml.sax_events", "count"); ("xml.canonical_ms", "ms");
    ("store.build_ms", "ms"); ("store.bytes_per_doc_byte", "ratio");
    ("xquery.compile_ms", "ms"); ("xquery.execute_path_ms", "ms");
    ("xquery.execute_join_ms", "ms"); ("xquery.nodes_scanned_per_item", "ratio");
    ("xquery.join_probes", "count") ]
  @ List.map (fun n -> (n, "ratio")) (per_system "relational.batch_fill")
  @ List.map (fun n -> (n, "count")) (per_system "relational.vec_fallbacks")
  @ List.map (fun n -> (n, "ratio")) (per_system "relational.index_hit_ratio")
  @ List.map (fun n -> (n, "count")) (per_system "relational.hash_join_probes")
  @ [ ("persist.snapshot_write_ms", "ms"); ("persist.snapshot_read_ms", "ms");
      ("persist.pager_hit_ratio", "ratio"); ("service.queue_ms", "ms");
      ("service.server_ms", "ms"); ("service.plan_hit_ratio", "ratio");
      ("service.conflict_ratio", "ratio"); ("writer.open_ms", "ms");
      ("writer.commit_ms", "ms"); ("writer.publish_ms", "ms");
      ("wal.append_ms", "ms"); ("wal.bytes_per_commit", "bytes");
      ("writer.replay_ms_per_record", "ms"); ("writer.recover_ms", "ms");
      ("wire.leg_overhead_ms", "ms"); ("wire.reply_bytes", "bytes");
      ("shard.partition_ms", "ms"); ("shard.workers_ready_ms", "ms");
      ("shard.leg_max_ms", "ms"); ("shard.leg_skew", "ratio") ]
  @ List.map (fun c -> ("merge.gather_ms." ^ c, "ms")) merge_classes
  @ [ ("shard.broadcast_bytes_per_query", "bytes");
      ("runtime.minor_words_per_op", "words");
      ("runtime.major_collections", "count"); ("harness.late_p95_ms", "ms");
      ("harness.unattributed_pct", "%"); ("harness.trace_overhead_pct", "%") ]

(* --- helpers over measured operations ---------------------------------- *)

let answered ops = List.filter (fun o -> o.ok) ops

let part name o = List.assoc_opt name o.parts

let counter name o = Option.value ~default:0 (List.assoc_opt name o.counters)

let sum_counter name ops = List.fold_left (fun acc o -> acc + counter name o) 0 ops

(* Latencies by (system, class). *)
let by_class ops =
  let t = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let key = (o.system, o.cls) in
      Hashtbl.replace t key (o.ms :: Option.value ~default:[] (Hashtbl.find_opt t key)))
    ops;
  t

(* Each class's fastest latency in the run, then the geometric mean over
   the classes: every class weighs the same however often the mix runs
   it.  On a shared host, interference from other tenants only ever adds
   time, so the minimum is the estimator least moved by it. *)
let class_geomean ops =
  Stat.geomean (Hashtbl.fold (fun _ ms acc -> Stat.minimum ms :: acc) (by_class ops) [])

(* Traced over untraced median latency, class by class, as a
   percentage. *)
let trace_overhead_pct ops =
  let ok = answered ops in
  let untraced = by_class (List.filter (fun o -> not o.traced) ok) in
  let ratios =
    Hashtbl.fold
      (fun key ms acc ->
        match Hashtbl.find_opt untraced key with
        | Some base when Stat.median base > 0.0 -> (Stat.median ms /. Stat.median base) :: acc
        | _ -> acc)
      (by_class (List.filter (fun o -> o.traced) ok))
      []
  in
  (Stat.geomean ratios -. 1.0) *. 100.0

(* The share of top-level span time that no layer span covers: the self
   time of the harness's grouping spans (names without a dot). *)
let unattributed_pct spans =
  let selfs = Trace.self_times spans in
  let top = List.filter (fun (s, _) -> s.Trace.parent = 0) selfs in
  let total = List.fold_left (fun acc (s, _) -> acc +. Trace.duration s) 0.0 top in
  let loose =
    List.fold_left
      (fun acc (s, self) ->
        if String.contains s.Trace.name '.' then acc else acc +. self)
      0.0 selfs
  in
  Stat.ratio loose total *. 100.0

(* Major collections so far, all domains together.  Minor words are
   per domain: every client domain reports its own [Gc.minor_words]. *)
let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* --- process-level measurements ----------------------------------------- *)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' status)

(* Files a run writes (WAL, snapshots, sockets) live under the working
   directory, in a per-process directory removed at exit.  Relative
   paths keep socket names short. *)
let scratch_root = ".perfbench-tmp"

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let scratch =
  lazy
    (let dir = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
     (try Sys.mkdir scratch_root 0o755 with Sys_error _ -> ());
     Sys.mkdir dir 0o755;
     let owner = Unix.getpid () in
     at_exit (fun () ->
         if Unix.getpid () = owner then begin
           remove_tree dir;
           try Sys.rmdir scratch_root with Sys_error _ -> ()
         end);
     dir)

let scratch_path name = Filename.concat (Lazy.force scratch) name

(* Samples of layer metrics, one per set-up repetition or probe call,
   keyed by metric name; the metric is their median. *)
module Samples = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add t name v =
    Hashtbl.replace t name (v :: Option.value ~default:[] (Hashtbl.find_opt t name))

  let median t name = Stat.median (Option.value ~default:[] (Hashtbl.find_opt t name))

  let medians t = Hashtbl.fold (fun name xs acc -> (name, Stat.median xs) :: acc) t []
end

(* --- set-up repetitions --------------------------------------------------- *)

(* Run [build] [setup_reps] times, each inside a top-level "setup" span,
   dropping the previous state first; keep the last.  [build] returns its
   state, its load time in ms, and a release function run before the
   next repetition replaces it.  A full major collection (untimed)
   before each repetition starts every one from the same clean heap, so
   a repetition does not pay for collecting its predecessor. *)
let repeat_setup cfg build =
  let reps = setup_reps cfg in
  let rec go i acc_setup acc_load release =
    release ();
    Gc.full_major ();
    let (state, load_ms, rel), ms =
      Trace.timed_span "setup" (fun () -> build i)
    in
    let acc_setup = ms :: acc_setup and acc_load = load_ms :: acc_load in
    if i + 1 < reps then go (i + 1) acc_setup acc_load rel
    else (state, List.rev acc_setup, List.rev acc_load)
  in
  go 0 [] [] ignore

(* --- the measured phase ---------------------------------------------------- *)

type 'a segment = {
  seg_ops : op list;
  seg_traced : bool;
  words : float;  (* minor words allocated, summed over client domains *)
  majors : int;  (* major collections *)
  extra : 'a;  (* what else the workload measured *)
}

(* Run the measured phase.  [phase ~traced seconds] runs the workload for
   [seconds] and returns its operations, the minor words its client
   domains allocated, and anything else it measured.  Untraced: one
   segment of the whole length.  Traced: eight segments, alternately
   untraced and traced, so both kinds see the same host conditions and
   their difference is the tracing overhead; tracing is switched only
   between segments, when no client runs, and left on for the probes. *)
let run_phase cfg phase =
  let segment ~traced seconds =
    let g0 = major_collections () in
    let seg_ops, words, extra = phase ~traced seconds in
    { seg_ops; seg_traced = traced; words; majors = major_collections () - g0; extra }
  in
  if not cfg.trace then [ segment ~traced:false cfg.seconds ]
  else begin
    let segs =
      List.init 8 (fun i ->
          let traced = i mod 2 = 1 in
          Trace.enabled := traced;
          Xmark_stats.set_enabled traced;
          segment ~traced (cfg.seconds /. 8.0))
    in
    Trace.enabled := true;
    Xmark_stats.enable ();
    segs
  end

let phase_ops segs = List.concat_map (fun s -> s.seg_ops) segs

(* Allocation and collections over the traced segments. *)
let runtime_layers segs =
  let traced = List.filter (fun s -> s.seg_traced) segs in
  let ops = List.fold_left (fun acc s -> acc + List.length s.seg_ops) 0 traced in
  [ ( "runtime.minor_words_per_op",
      Stat.ratio (List.fold_left (fun acc s -> acc +. s.words) 0.0 traced) (float_of_int ops) );
    ("runtime.major_collections", float_of_int (List.fold_left (fun acc s -> acc + s.majors) 0 traced)) ]

(* --- result emission --------------------------------------------------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let end_to_end_values r =
  let ok = answered r.ops in
  let by kind = List.filter (fun o -> o.kind = kind) ok in
  [ ("setup_s", Stat.median r.setup_ms /. 1000.0);
    ("load_s", Stat.minimum r.load_ms /. 1000.0);
    ("q_path_geomean_ms", class_geomean (by Path));
    ("q_join_geomean_ms", class_geomean (by Join));
    ("ops_per_s", r.ops_per_s);
    ("peak_rss_mb", r.rss_mb) ]

(* Layers a workload does not run report 0. *)
let per_layer_values r =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        failwith ("undeclared per-layer metric " ^ name))
    r.layers;
  List.map
    (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name r.layers)))
    per_layer

(* Print every metric as "workload metric value unit", then the result
   object as the last line of stdout.  Returns whether every gate held. *)
let emit ~workload cfg r =
  let table, values =
    if cfg.trace then (per_layer, per_layer_values r) else (end_to_end, end_to_end_values r)
  in
  let failed_ops = List.length (List.filter (fun o -> not o.ok) r.ops) in
  let failed = failed_ops + List.length r.gate_failures in
  let bad_values =
    List.filter_map
      (fun (n, v) -> if Float.is_finite v then None else Some (n ^ " is not finite"))
      values
  in
  (* the layers must add up to the end-to-end spans they sit in *)
  let unattributed =
    match List.assoc_opt "harness.unattributed_pct" r.layers with
    | Some u when u > 5.0 -> [ Printf.sprintf "%.1f%% of traced time is in no layer (limit 5%%)" u ]
    | _ -> []
  in
  let problems = r.gate_failures @ bad_values @ unattributed in
  List.iter (fun f -> prerr_endline ("GATE FAILED: " ^ f)) problems;
  let correct = failed = 0 && bad_values = [] && unattributed = [] in
  List.iter
    (fun (n, v) -> Printf.printf "%s %s %.6g %s\n" workload n v (List.assoc n table))
    values;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    (max 1 (List.length r.ops))
    failed
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v)
              (List.assoc n table))
          values));
  correct
