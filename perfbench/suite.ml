(* [all]: every workload in a fresh child process (so peak RSS and GC
   state do not leak from one workload into the next), gathered into one
   provenance-stamped file; and [validate], which checks such a file
   against the metrics BENCHMARK.json declares. *)

type run = {
  workload : string;
  seed : int;
  trace : bool;
  exit_code : int;
  line : string;  (* the child's result line, or "null" *)
  result : Json.t option;
}

(* Run [run.exe --workload ...] as a child, echo its output, and parse
   its last line. *)
let child ~workload ~seed ~seconds ~trace ~quick ~spans =
  let args =
    [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ (if quick then [ "--quick" ] else [])
    @ match spans with Some f -> [ "--spans"; f ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  List.iter print_endline lines;
  let exit_code = match status with Unix.WEXITED c -> c | _ -> 255 in
  let line, result =
    match List.rev lines with
    | last :: _ -> ( try (last, Some (Json.parse last)) with Json.Error _ -> ("null", None))
    | [] -> ("null", None)
  in
  { workload; seed; trace; exit_code; line; result }

let run_json r =
  Printf.sprintf "{\"workload\": \"%s\", \"seed\": %d, \"trace\": %d, \"exit\": %d, \"result\": %s}"
    r.workload r.seed (if r.trace then 1 else 0) r.exit_code r.line

let ok r =
  r.exit_code = 0
  &&
  match r.result with
  | Some j -> Json.to_bool (Json.member "correct" j) && Json.to_float (Json.member "failed" j) = 0.0
  | None -> false

let all ~workloads ~seed ~runs ~seconds ~trace ~quick ~spans ~out =
  let results =
    List.concat_map
      (fun (workload, _) ->
        let plain =
          List.init runs (fun i ->
              child ~workload ~seed:(seed + i) ~seconds ~trace:false ~quick ~spans:None)
        in
        let traced =
          if trace then
            [ child ~workload ~seed ~seconds ~trace:true ~quick
                ~spans:(Option.map (fun p -> Printf.sprintf "%s.%s.jsonl" p workload) spans) ]
          else []
        in
        plain @ traced)
      workloads
  in
  let json =
    Printf.sprintf
      "{\"provenance\": %s, \"factors\": {%s}, \"seconds\": %g, \"runs\": [\n%s\n]}\n"
      (Xmark_core.Provenance.json ~factor:(if quick then 0.001 else 0.1) ~jobs:1 ~runs ())
      (String.concat ", "
         (List.map
            (fun (w, f) -> Printf.sprintf "\"%s\": %g" w (if quick then 0.001 else f))
            workloads))
      seconds
      (String.concat ",\n" (List.map run_json results))
  in
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc json);
  let bad = List.filter (fun r -> not (ok r)) results in
  List.iter
    (fun r -> Printf.eprintf "FAILED: %s seed %d (trace %b), exit %d\n" r.workload r.seed r.trace r.exit_code)
    bad;
  Printf.printf "wrote %s: %d run(s), %d failed\n" out (List.length results) (List.length bad);
  if bad = [] then 0 else 1

(* --- validate ------------------------------------------------------------ *)

let declared spec key =
  List.map
    (fun m -> (Json.to_string (Json.member "name" m), Json.to_string (Json.member "unit" m)))
    (Json.to_list (Json.member key spec))

let validate ~spec ~results =
  let spec = Json.of_file spec and results = Json.of_file results in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let runs = Json.to_list (Json.member "runs" results) in
  let check_run workload trace want =
    let mine =
      List.filter
        (fun r ->
          Json.to_string (Json.member "workload" r) = workload
          && Json.to_float (Json.member "trace" r) = if trace then 1.0 else 0.0)
        runs
    in
    if mine = [] then problem "%s: no %s run" workload (if trace then "traced" else "untraced");
    List.iter
      (fun r ->
        match Json.member "result" r with
        | Json.Null -> problem "%s: a run printed no result" workload
        | res ->
            if not (Json.to_bool (Json.member "correct" res)) then problem "%s: a gate failed" workload;
            let metrics = Json.to_assoc (Json.member "metrics" res) in
            List.iter
              (fun (name, unit) ->
                match List.assoc_opt name metrics with
                | None -> problem "%s: metric %s missing" workload name
                | Some m ->
                    (match Json.member "value" m with
                    | Json.Num v when Float.is_finite v -> ()
                    | _ -> problem "%s: %s is not a finite number" workload name);
                    if Json.to_string (Json.member "unit" m) <> unit then
                      problem "%s: %s has unit %s, declared %s" workload name
                        (Json.to_string (Json.member "unit" m)) unit)
              want;
            List.iter
              (fun (name, _) ->
                if not (List.mem_assoc name want) then problem "%s: undeclared metric %s" workload name)
              metrics)
      mine
  in
  List.iter
    (fun w ->
      let name = Json.to_string (Json.member "name" w) in
      check_run name false (declared spec "end_to_end");
      check_run name true (declared spec "per_layer"))
    (Json.to_list (Json.member "workloads" spec));
  match List.rev !problems with
  | [] ->
      print_endline "valid: every declared metric present, finite and with its unit; no gate failed";
      0
  | ps ->
      List.iter prerr_endline ps;
      1
