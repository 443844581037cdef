(* The benchmark's command line.

     run.exe --workload W --seed N --seconds S --trace 0|1 [--quick] [--spans FILE]
       one workload in this process: prints every metric as
       "W metric value unit" and, as the last line of stdout, one JSON
       object {"correct", "attempted", "failed", "metrics"} — end-to-end
       metrics with --trace 0, per-layer metrics with --trace 1.  Exits 1
       when a correctness gate fails.

     run.exe all --out FILE [--seed N] [--runs R] [--seconds S] [--trace 0|1] [--quick] [--spans PREFIX]
       every workload R times (seeds N..N+R-1), each in a child process,
       plus one traced run per workload with --trace 1; writes one
       provenance-stamped JSON file.  Exits 1 when any run failed.

     run.exe compare BASE.json NEW.json [--spec BENCHMARK.json]
       medians, quartiles, ratios and verdicts per workload and metric.

     run.exe validate BENCHMARK.json RESULTS.json
       every declared metric present, finite and in its unit; no gate
       failed.

   README.md describes the workloads and metrics. *)

module Runner = Xmark_core.Runner

(* name, scaling factor, workload *)
let workloads =
  [ ("table3-d", 0.1, Inproc.run ~systems:[ Runner.D ]);
    ("relational-abc", 0.01, Inproc.run ~systems:[ Runner.A; Runner.B; Runner.C ]);
    ("mixed-d", 0.1, Mixed.run);
    ("sharded-k2", 0.1, Sharded.run) ]

let parse argv ~first spec ~usage =
  let rest = ref [] in
  Arg.parse_argv ~current:(ref first) argv spec (fun a -> rest := a :: !rest) usage;
  List.rev !rest

let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let quick = ref false
let spans = ref ""

let common =
  [ ("--seed", Arg.Set_int seed, "N seed of the request mixes, schedules and update streams");
    ("--seconds", Arg.Set_float seconds, "S length of each measured phase");
    ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
    ("--quick", Arg.Set quick, " factor 0.001 everywhere (the smoke run)");
    ("--spans", Arg.Set_string spans, "FILE write the traced run's spans (JSON lines) here") ]

let one argv =
  let workload = ref "" in
  let usage = "run.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--spans FILE]" in
  (match parse argv ~first:0 (("--workload", Arg.Set_string workload, "NAME workload") :: common) ~usage with
  | [] -> ()
  | a :: _ -> raise (Arg.Bad ("unexpected argument " ^ a)));
  match List.find_opt (fun (n, _, _) -> n = !workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (n, _, _) -> n) workloads));
      2
  | Some (_, factor, run) ->
      let cfg =
        {
          Bench.seed = !seed;
          seconds = !seconds;
          trace = !trace <> 0;
          quick = !quick;
        }
      in
      if cfg.Bench.trace then begin
        Trace.enabled := true;
        Xmark_stats.enable ()
      end;
      let result = run cfg ~factor:(Bench.factor cfg factor) in
      if !spans <> "" then Trace.write_file !spans (Trace.all ());
      if Bench.emit ~workload:!workload cfg result then 0 else 1

let () =
  let argv = Sys.argv in
  let sub = if Array.length argv > 1 then argv.(1) else "" in
  let code =
    try
      match sub with
      | "all" ->
          let out = ref "" and runs = ref 1 in
          let spec =
            ("--out", Arg.Set_string out, "FILE results file")
            :: ("--runs", Arg.Set_int runs, "R runs per workload, seeds N..N+R-1")
            :: common
          in
          ignore (parse argv ~first:1 spec ~usage:"run.exe all --out FILE [options]");
          if !out = "" then raise (Arg.Bad "all: --out FILE is required");
          Suite.all
            ~workloads:(List.map (fun (n, f, _) -> (n, f)) workloads)
            ~seed:!seed ~runs:!runs ~seconds:!seconds ~trace:(!trace <> 0) ~quick:!quick
            ~spans:(if !spans = "" then None else Some !spans)
            ~out:!out
      | "compare" -> (
          let spec = ref "BENCHMARK.json" in
          match
            parse argv ~first:1
              [ ("--spec", Arg.Set_string spec, "FILE the benchmark declaration") ]
              ~usage:"run.exe compare BASE.json NEW.json [--spec BENCHMARK.json]"
          with
          | [ base; next ] -> Compare.run ~spec:!spec ~base ~next
          | _ -> raise (Arg.Bad "compare: want BASE.json NEW.json"))
      | "validate" -> (
          match parse argv ~first:1 [] ~usage:"run.exe validate BENCHMARK.json RESULTS.json" with
          | [ spec; results ] -> Suite.validate ~spec ~results
          | _ -> raise (Arg.Bad "validate: want BENCHMARK.json RESULTS.json"))
      | _ -> one argv
    with
    | Arg.Bad msg | Arg.Help msg ->
        prerr_string msg;
        2
    | Json.Error msg | Sys_error msg ->
        prerr_endline msg;
        2
  in
  exit code
