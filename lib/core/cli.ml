(* Shared command-line vocabulary, so every executable spells the
   common flags the same way. *)

open Cmdliner

let read_file path = In_channel.with_open_bin path In_channel.input_all

let system_of_string = function
  | "A" | "a" -> Ok Runner.A
  | "B" | "b" -> Ok Runner.B
  | "C" | "c" -> Ok Runner.C
  | "D" | "d" -> Ok Runner.D
  | "E" | "e" -> Ok Runner.E
  | "F" | "f" -> Ok Runner.F
  | "G" | "g" -> Ok Runner.G
  | s -> Error (`Msg (Printf.sprintf "unknown system %S (expected A-G)" s))

let parse_systems s =
  String.split_on_char ',' s
  |> List.map (fun tok ->
         match system_of_string (String.trim tok) with
         | Ok sys -> sys
         | Error (`Msg m) -> failwith m)

let parse_queries s =
  String.split_on_char ',' s
  |> List.concat_map (fun tok ->
         let tok = String.trim tok in
         let parse_one t =
           match int_of_string_opt t with
           | Some n when n >= 1 && n <= 20 -> n
           | _ -> failwith (Printf.sprintf "bad query %S (expected 1-20)" t)
         in
         match String.index_opt tok '-' with
         | Some i when i > 0 ->
             let lo = parse_one (String.sub tok 0 i) in
             let hi = parse_one (String.sub tok (i + 1) (String.length tok - i - 1)) in
             if lo > hi then failwith (Printf.sprintf "empty query range %S" tok);
             List.init (hi - lo + 1) (fun k -> lo + k)
         | _ -> [ parse_one tok ])

let system_conv =
  Arg.conv
    (system_of_string, fun fmt sys -> Format.pp_print_string fmt (Runner.system_name sys))

let systems_conv =
  Arg.conv
    ( (fun s ->
        match parse_systems s with
        | systems -> Ok systems
        | exception Failure m -> Error (`Msg m)),
      fun fmt systems ->
        Format.pp_print_string fmt
          (String.concat ","
             (List.map
                (fun sys ->
                  let name = Runner.system_name sys in
                  String.sub name (String.length name - 1) 1)
                systems)) )

let queries_conv =
  Arg.conv
    ( (fun s ->
        match parse_queries s with
        | queries -> Ok queries
        | exception Failure m -> Error (`Msg m)),
      fun fmt queries ->
        Format.pp_print_string fmt (String.concat "," (List.map string_of_int queries)) )

let factor ?(default = 0.01) () =
  Arg.(
    value
    & opt float default
    & info [ "f"; "factor"; "scale" ] ~docv:"FACTOR"
        ~doc:"Scaling factor of the benchmark document; 1.0 is roughly 100 MB (Figure 3).")

let seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Random seed; the default reproduces the canonical benchmark document.")

let stats_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Run the selected systems and queries with execution statistics enabled and write \
           per-system/per-query counters as JSON to $(docv).")

let explain =
  Arg.(
    value
    & flag
    & info [ "explain" ]
        ~doc:
          "EXPLAIN ANALYZE: enable execution-statistics collection and print a per-scope \
           counter table (nodes scanned, index probes, join builds, ...) to stderr.")

let no_vec =
  Arg.(
    value
    & flag
    & info [ "no-vec" ]
        ~doc:
          "Disable vectorized batch-at-a-time execution: path plans and the \
           System C batch scans fall back to the scalar tuple-at-a-time \
           operators.  Results are identical either way; this flag exists for \
           A/B comparisons and differential testing.")

let install_no_vec disabled =
  if disabled then Xmark_relational.Vec_ops.set_enabled false

let doc_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "doc" ] ~docv:"FILE" ~doc:"Benchmark document file.")

let snapshot =
  Arg.(
    value
    & opt (some file) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Load the session from a saved snapshot instead of parsing a document \
           (see $(b,--save-snapshot)); restores skip parsing and shredding.")

let save_snapshot =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-snapshot" ] ~docv:"FILE"
        ~doc:
          "After loading, write the session's store to $(docv) as a checksummed \
           paged snapshot for later $(b,--snapshot) restores.")

let system ?(default = Runner.D) () =
  Arg.(
    value
    & opt system_conv default
    & info [ "s"; "system" ] ~docv:"A-G" ~doc:"Storage backend (paper's Systems A through G).")

let systems =
  Arg.(
    value
    & opt systems_conv Runner.all_systems
    & info [ "systems" ] ~docv:"LIST" ~doc:"Comma-separated systems (e.g. B,G).")

let queries =
  Arg.(
    value
    & opt queries_conv (List.init 20 (fun i -> i + 1))
    & info [ "queries" ] ~docv:"LIST"
        ~doc:"Comma-separated query numbers or ranges (e.g. 1,8,20 or 1-5).")

(* --- query-service flags (xmark_serve) ------------------------------------- *)

let clients_conv =
  Arg.conv
    ( (fun s ->
        let parse tok =
          match int_of_string_opt (String.trim tok) with
          | Some n when n >= 1 -> n
          | _ -> failwith (Printf.sprintf "bad client count %S" tok)
        in
        match List.map parse (String.split_on_char ',' s) with
        | counts -> Ok counts
        | exception Failure m -> Error (`Msg m)),
      fun fmt counts ->
        Format.pp_print_string fmt (String.concat "," (List.map string_of_int counts)) )

let clients =
  Arg.(
    value
    & opt clients_conv [ 1 ]
    & info [ "clients" ] ~docv:"LIST"
        ~doc:
          "Comma-separated client counts to sweep (e.g. 1,2,4,8); each count runs the \
           whole workload once, which is how the scaling curve is produced.")

let duration_requests =
  Arg.(
    value
    & opt int 200
    & info [ "duration-requests" ] ~docv:"N"
        ~doc:
          "Total requests per workload run, split evenly across the clients — held \
           constant across client counts so runs compare.")

let mix =
  Arg.(
    value
    & opt string "interactive"
    & info [ "mix" ] ~docv:"MIX"
        ~doc:
          "Operation mix: $(b,interactive) (weighted lookups/scans, no quadratic \
           joins), $(b,uniform) (Q1-Q20 equally), $(b,mixed) (interactive reads \
           plus bid/register/close writes — needs a write path), or explicit \
           weights like $(b,1:5,8:2,bid:3,close).")

let deadline_ms =
  Arg.(
    value
    & opt float 0.0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline in milliseconds (queue wait + execution); 0 disables.  \
           Late requests are aborted cooperatively and reported as typed timeouts.")

let max_inflight =
  Arg.(
    value
    & opt int 0
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"Admission limit on concurrently executing requests; 0 means one per client.")

let queue_depth =
  Arg.(
    value
    & opt int 64
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Bounded admission queue behind $(b,--max-inflight); a request arriving with \
           the queue full is rejected as overloaded.")

let plan_cache =
  Arg.(
    value
    & opt int 64
    & info [ "plan-cache" ] ~docv:"N"
        ~doc:"Capacity of the prepared-plan LRU cache (idle plans); 0 disables caching.")

(* --- wire flags (xmark_serve) ---------------------------------------------- *)

let listen =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve the loaded store over the wire protocol on $(docv) \
           ($(b,unix:/path/sock), $(b,tcp:HOST:PORT), or a bare path/HOST:PORT) \
           instead of running a local workload sweep; blocks until killed.")

let connect =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Run the workload sweep as a socket client against a server started \
           with $(b,--listen) or $(b,--fleet) at $(docv); no store is loaded \
           locally.")

(* A process count; 0 means the mode is off, and a negative one is
   refused rather than read as 0. *)
let count_conv =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "expected a count >= 0, got %S" s))),
      Format.pp_print_int )

let fleet =
  Arg.(
    value
    & opt count_conv 0
    & info [ "fleet" ] ~docv:"N"
        ~doc:
          "Fork $(docv) worker processes, each restoring the same read-only \
           snapshot, behind a round-robin front door; with $(b,--listen) the \
           fleet serves until killed, otherwise the workload sweep runs against \
           it over real sockets.")

let shards =
  Arg.(
    value
    & opt count_conv 0
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Partition the document into $(docv) shards along entity boundaries \
           and execute the benchmark queries scatter-gather — one worker \
           process per shard behind per-shard wire endpoints — gating every \
           answer against the single-store digest.  0 (default) disables \
           sharding.")

