module Timing = Xmark_core.Timing
module Prng = Xmark_prng.Prng
module Stats = Xmark_stats

(* Closed-loop multi-client workload driver: N client domains each run a
   think-time-free request loop against one server, drawing operations
   from a weighted mix with a deterministic per-client PRNG stream.
   Closed loop means a client submits its next request only after the
   previous reply — offered load adapts to service rate, so throughput
   (req/s) is the measurement, not an input.

   The driver is transport-agnostic: each client strand owns one [conn]
   (a [Protocol.request -> Protocol.response] function plus a closer),
   obtained from a [transport] factory.  [local] wraps an in-process
   {!Server}; {!Xmark_wire.Client.transport} dials a socket — the same
   mixes, histograms and digest gate then measure the full path
   including framing and the kernel, which is why latency is clocked
   here on the client side, not taken from the server's reply.

   Mixes may contain write classes (bid storms against auction
   browsing).  Under writes the store changes mid-run, so the digest
   gate is keyed by the epoch each reply reports: same query at the
   same epoch must digest identically across every client and domain —
   the observable form of "readers never see a half-applied commit". *)

type conn = {
  call : Protocol.request -> Protocol.response;
  close : unit -> unit;
}

type transport = unit -> conn

let local server =
  fun () -> { call = (fun req -> Server.handle server req); close = ignore }

type op_class = Query of int | Bid | Register | Close

let class_label = function
  | Query q -> Printf.sprintf "Q%d" q
  | Bid -> "BID"
  | Register -> "REG"
  | Close -> "CLOSE"

(* Fixed class slots: 0-19 the queries, then the three write classes. *)
let n_classes = 23

let class_slot = function
  | Query q -> q - 1
  | Bid -> 20
  | Register -> 21
  | Close -> 22

let class_of_slot = function
  | i when i < 20 -> Query (i + 1)
  | 20 -> Bid
  | 21 -> Register
  | _ -> Close

type mix = (op_class * int) list

let uniform_mix = List.init 20 (fun i -> (Query (i + 1), 1))

(* The "interactive" profile: lookups, scans and small aggregates —
   the queries a user-facing auction site fires constantly — leaving
   out the quadratic joins (Q9-Q12) that belong in batch reports.
   Weights loosely follow XMach-1's mix philosophy: cheap and frequent
   dominates. *)
let interactive_mix =
  [ (Query 1, 8); (Query 2, 4); (Query 3, 2); (Query 5, 4); (Query 6, 6);
    (Query 7, 3); (Query 8, 2); (Query 13, 4); (Query 14, 2); (Query 15, 4);
    (Query 16, 3); (Query 17, 4); (Query 20, 4) ]

(* Bid storm against auction browsing — XWeB's refresh-function shape:
   reads dominate but every third operation or so mutates, with bids
   far ahead of registrations and the occasional close. *)
let mixed_mix =
  [ (Query 1, 6); (Query 2, 3); (Query 5, 3); (Query 6, 4); (Query 8, 2);
    (Query 13, 3); (Query 15, 3); (Query 17, 3); (Query 20, 3);
    (Bid, 10); (Register, 3); (Close, 2) ]

let has_writes mix =
  List.exists (function Query _, _ -> false | _ -> true) mix

let mix_to_string mix =
  String.concat ","
    (List.map
       (fun (c, w) ->
         let name =
           match c with
           | Query q -> string_of_int q
           | Bid -> "bid"
           | Register -> "register"
           | Close -> "close"
         in
         Printf.sprintf "%s:%d" name w)
       mix)

let mix_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "uniform" -> uniform_mix
  | "interactive" -> interactive_mix
  | "mixed" -> mixed_mix
  | spec ->
      let entry part =
        let fail () =
          failwith
            (Printf.sprintf
               "bad mix entry %S (want QUERY, bid, register or close, \
                optionally :WEIGHT, e.g. \"1:5,8:2,bid:3\")"
               part)
        in
        let c, w =
          match String.split_on_char ':' part with
          | [ c ] -> (c, "1")
          | [ c; w ] -> (c, w)
          | _ -> fail ()
        in
        let w = match int_of_string_opt (String.trim w) with Some w when w > 0 -> w | _ -> fail () in
        match String.lowercase_ascii (String.trim c) with
        | "bid" -> (Bid, w)
        | "register" -> (Register, w)
        | "close" -> (Close, w)
        | q -> (
            match int_of_string_opt q with
            | Some q when q >= 1 && q <= 20 -> (Query q, w)
            | _ -> fail ())
      in
      let mix = List.map entry (String.split_on_char ',' spec) in
      if mix = [] then failwith "empty mix";
      mix

let draw gen mix total_weight =
  let r = Prng.int gen total_weight in
  let rec pick acc = function
    | [] -> assert false
    | (c, w) :: rest -> if r < acc + w then c else pick (acc + w) rest
  in
  pick 0 mix

(* --- per-class accumulation ----------------------------------------------- *)

type class_stats = {
  cs_class : op_class;
  mutable cs_count : int;
  mutable cs_ok : int;
  mutable cs_timeouts : int;
  mutable cs_rejected : int;
  mutable cs_conflicts : int;
  mutable cs_failed : int;
  cs_digests : (int, string) Hashtbl.t;  (* epoch -> first digest seen *)
  mutable cs_digest_mismatches : int;
  cs_hist : Timing.Histogram.t;  (* latencies of ok replies/commits *)
}

let fresh_classes () =
  Array.init n_classes (fun i ->
      {
        cs_class = class_of_slot i;
        cs_count = 0;
        cs_ok = 0;
        cs_timeouts = 0;
        cs_rejected = 0;
        cs_conflicts = 0;
        cs_failed = 0;
        cs_digests = Hashtbl.create 8;
        cs_digest_mismatches = 0;
        cs_hist = Timing.Histogram.create ();
      })

(* Record a (epoch, digest) observation; a second digest for the same
   epoch must match the first — across strands and domains. *)
let note_digest c ~epoch digest =
  match Hashtbl.find_opt c.cs_digests epoch with
  | None -> Hashtbl.replace c.cs_digests epoch digest
  | Some d -> if d <> digest then c.cs_digest_mismatches <- c.cs_digest_mismatches + 1

let merge_class ~into src =
  into.cs_count <- into.cs_count + src.cs_count;
  into.cs_ok <- into.cs_ok + src.cs_ok;
  into.cs_timeouts <- into.cs_timeouts + src.cs_timeouts;
  into.cs_rejected <- into.cs_rejected + src.cs_rejected;
  into.cs_conflicts <- into.cs_conflicts + src.cs_conflicts;
  into.cs_failed <- into.cs_failed + src.cs_failed;
  Hashtbl.iter (fun epoch d -> note_digest into ~epoch d) src.cs_digests;
  into.cs_digest_mismatches <- into.cs_digest_mismatches + src.cs_digest_mismatches;
  Timing.Histogram.merge ~into:into.cs_hist src.cs_hist

type report = {
  r_clients : int;
  r_requests : int;
  r_ok : int;
  r_committed : int;
  r_timeouts : int;
  r_rejected : int;
  r_conflicts : int;
  r_failed : int;
  r_elapsed_s : float;
  r_rps : float;  (* successful operations per wall-clock second *)
  r_hist : Timing.Histogram.t;  (* reads *)
  r_whist : Timing.Histogram.t;  (* writes *)
  r_classes : class_stats list;  (* only classes the mix exercised *)
  r_digest_mismatches : int;
}

(* One client fiber: its PRNG stream, its remaining request budget, its
   private accumulators (merged by the driver afterwards — fibers share
   nothing, so the loop is lock-free outside the server) and its
   connection, dialed lazily on the runner domain that steps it so a
   socket is only ever used by the domain that opened it. *)
type strand = {
  st_id : int;
  st_gen : Prng.t;
  mutable st_budget : int;
  mutable st_seq : int;  (* operations issued; names registrations *)
  mutable st_conn : conn option;
  st_classes : class_stats array;
}

let strand_conn transport s =
  match s.st_conn with
  | Some c -> c
  | None ->
      let c = transport () in
      s.st_conn <- Some c;
      c

let strand_close s =
  match s.st_conn with
  | None -> ()
  | Some c ->
      s.st_conn <- None;
      (try c.close () with _ -> ())

(* Writes draw their target ids from the strand's PRNG — deterministic
   per seed, contentious across strands (two clients can race to bid on
   the same auction, which is the point of a bid storm). *)
let query_of_class s write_targets cls =
  match cls with
  | Query q -> Protocol.Benchmark q
  | Bid ->
      let n_auctions, n_persons = write_targets in
      Protocol.Update
        (Protocol.Place_bid
           {
             auction = Printf.sprintf "open_auction%d" (Prng.int s.st_gen n_auctions);
             person = Printf.sprintf "person%d" (Prng.int s.st_gen n_persons);
             increase = float_of_int (1 + Prng.int s.st_gen 40) /. 2.0;
             date = "07/31/2002";
             time = "12:00:00";
           })
  | Register ->
      Protocol.Update
        (Protocol.Register_person
           {
             name = Printf.sprintf "Load Client %d-%d" s.st_id s.st_seq;
             email = Printf.sprintf "mailto:client%d.%d@workload.invalid" s.st_id s.st_seq;
           })
  | Close ->
      let n_auctions, _ = write_targets in
      Protocol.Update
        (Protocol.Close_auction
           {
             auction = Printf.sprintf "open_auction%d" (Prng.int s.st_gen n_auctions);
             date = "07/31/2002";
           })

let strand_step transport mix total_weight write_targets s =
  let cls = draw s.st_gen mix total_weight in
  let c = s.st_classes.(class_slot cls) in
  c.cs_count <- c.cs_count + 1;
  s.st_seq <- s.st_seq + 1;
  let conn = strand_conn transport s in
  let req =
    Protocol.request ~client:(Printf.sprintf "c%d" s.st_id)
      (query_of_class s write_targets cls)
  in
  (* latency is clocked here — it covers the transport, not just the
     server-side slice the reply reports *)
  let t0 = Stats.now_ns () in
  (match conn.call req with
  | Ok (Protocol.Reply reply) ->
      c.cs_ok <- c.cs_ok + 1;
      Timing.Histogram.add c.cs_hist (Stats.ms_since t0);
      note_digest c ~epoch:reply.Protocol.epoch reply.Protocol.digest
  | Ok (Protocol.Committed _) ->
      c.cs_ok <- c.cs_ok + 1;
      Timing.Histogram.add c.cs_hist (Stats.ms_since t0)
  | Error (Protocol.Timeout _) -> c.cs_timeouts <- c.cs_timeouts + 1
  | Error (Protocol.Overloaded _) -> c.cs_rejected <- c.cs_rejected + 1
  | Error (Protocol.Rejected _) -> c.cs_conflicts <- c.cs_conflicts + 1
  | Ok (Protocol.Partial_reply _) ->
      (* the workload driver never sends Partial requests *)
      c.cs_failed <- c.cs_failed + 1
  | Error
      ( Protocol.Unsupported _ | Protocol.Failed _ | Protocol.Bad_request _
      | Protocol.Unavailable _ | Protocol.Read_only _
      | Protocol.Wrong_shard _ | Protocol.Not_sharded _ ) ->
      c.cs_failed <- c.cs_failed + 1);
  s.st_budget <- s.st_budget - 1;
  if s.st_budget <= 0 then strand_close s

(* Round-robin the runner's strands, one request per strand per pass:
   each strand stays closed-loop (its next request follows its previous
   reply) while the runner interleaves fairly. *)
let runner_loop transport mix total_weight write_targets strands =
  Fun.protect
    ~finally:(fun () -> List.iter strand_close strands)
    (fun () ->
      let remaining = ref (List.filter (fun s -> s.st_budget > 0) strands) in
      while !remaining <> [] do
        remaining :=
          List.filter
            (fun s ->
              strand_step transport mix total_weight write_targets s;
              s.st_budget > 0)
            !remaining
      done)

let run_transport ?seed ?(domains = 0) ?write_targets ~clients ~requests ~mix
    transport =
  if clients < 1 then invalid_arg "Workload.run: clients must be >= 1";
  if requests < 0 then invalid_arg "Workload.run: requests must be >= 0";
  (match mix with
  | [] -> invalid_arg "Workload.run: empty mix"
  | mix ->
      List.iter
        (fun (c, w) ->
          (match c with
          | Query q when q < 1 || q > 20 ->
              invalid_arg "Workload.run: query classes must be 1-20"
          | _ -> ());
          if w <= 0 then invalid_arg "Workload.run: mix weights must be > 0")
        mix);
  let write_targets =
    match (write_targets, has_writes mix) with
    | Some (na, np), _ when na < 1 || np < 1 ->
        invalid_arg "Workload.run: write_targets must be positive"
    | Some t, _ -> t
    | None, true ->
        invalid_arg "Workload.run: a mix with writes needs ~write_targets"
    | None, false -> (1, 1)  (* unused *)
  in
  let total_weight = List.fold_left (fun acc (_, w) -> acc + w) 0 mix in
  (* requests split as evenly as possible; remainder to the first
     clients, so the total is exact and comparisons across client
     counts hold the offered work constant *)
  let share i = (requests / clients) + if i < requests mod clients then 1 else 0 in
  let base = Prng.create ?seed () in
  let strands =
    List.init clients (fun i ->
        { st_id = i; st_gen = Prng.split base; st_budget = share i; st_seq = 0;
          st_conn = None; st_classes = fresh_classes () })
  in
  (* Client fibers multiplex over runner domains: parallelism is bounded
     by the hardware (spawning more CPU-bound domains than cores only
     buys minor-GC synchronization stalls), concurrency by [clients].
     [domains] overrides the auto size, for tests. *)
  let ndomains =
    let auto = min clients (Domain.recommended_domain_count ()) in
    max 1 (min clients (if domains > 0 then domains else auto))
  in
  let groups =
    List.init ndomains (fun d ->
        List.filteri (fun i _ -> i mod ndomains = d) strands)
  in
  let t0 = Stats.now_ns () in
  (match groups with
  | [] -> ()
  | first :: rest ->
      (* the driver domain runs the first group itself; only extra
         runners are spawned (none on a single-core machine) *)
      let spawned =
        List.map
          (fun group ->
            Domain.spawn (fun () ->
                runner_loop transport mix total_weight write_targets group;
                (* per-domain counter deltas ride back to the driver,
                   same discipline as the pool's workers *)
                Stats.export_and_clear ()))
          rest
      in
      runner_loop transport mix total_weight write_targets first;
      List.iter (fun d -> Stats.absorb (Domain.join d)) spawned);
  let merged = fresh_classes () in
  List.iter
    (fun s -> Array.iteri (fun i c -> merge_class ~into:merged.(i) c) s.st_classes)
    strands;
  let elapsed_s = Stats.ms_since t0 /. 1000.0 in
  let hist = Timing.Histogram.create () in
  let whist = Timing.Histogram.create () in
  let ok = ref 0 and committed = ref 0 and timeouts = ref 0 in
  let rejected = ref 0 and conflicts = ref 0 and failed = ref 0 in
  let mismatches = ref 0 in
  Array.iter
    (fun c ->
      (match c.cs_class with
      | Query _ ->
          ok := !ok + c.cs_ok;
          Timing.Histogram.merge ~into:hist c.cs_hist
      | Bid | Register | Close ->
          committed := !committed + c.cs_ok;
          Timing.Histogram.merge ~into:whist c.cs_hist);
      timeouts := !timeouts + c.cs_timeouts;
      rejected := !rejected + c.cs_rejected;
      conflicts := !conflicts + c.cs_conflicts;
      failed := !failed + c.cs_failed;
      mismatches := !mismatches + c.cs_digest_mismatches)
    merged;
  {
    r_clients = clients;
    r_requests = requests;
    r_ok = !ok;
    r_committed = !committed;
    r_timeouts = !timeouts;
    r_rejected = !rejected;
    r_conflicts = !conflicts;
    r_failed = !failed;
    r_elapsed_s = elapsed_s;
    r_rps =
      (if elapsed_s > 0.0 then float_of_int (!ok + !committed) /. elapsed_s
       else 0.0);
    r_hist = hist;
    r_whist = whist;
    r_classes =
      Array.to_list merged |> List.filter (fun c -> c.cs_count > 0);
    r_digest_mismatches = !mismatches;
  }

let run ?seed ?domains ?write_targets ~clients ~requests ~mix server =
  run_transport ?seed ?domains ?write_targets ~clients ~requests ~mix
    (local server)

let pp_report fmt r =
  let p h q = Timing.Histogram.percentile h q in
  Format.fprintf fmt
    "%d client(s): %d requests in %.2f s = %.1f req/s (ok %d, committed %d, \
     timeout %d, rejected %d, conflict %d, failed %d)@."
    r.r_clients r.r_requests r.r_elapsed_s r.r_rps r.r_ok r.r_committed
    r.r_timeouts r.r_rejected r.r_conflicts r.r_failed;
  if Timing.Histogram.count r.r_hist > 0 then
    Format.fprintf fmt
      "  read latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f@."
      (p r.r_hist 50.0) (p r.r_hist 90.0) (p r.r_hist 99.0)
      (Timing.Histogram.max_ms r.r_hist);
  if Timing.Histogram.count r.r_whist > 0 then
    Format.fprintf fmt
      "  write latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f@."
      (p r.r_whist 50.0) (p r.r_whist 90.0) (p r.r_whist 99.0)
      (Timing.Histogram.max_ms r.r_whist);
  List.iter
    (fun c ->
      Format.fprintf fmt
        "  %-5s %5d req  p50 %8.2f  p90 %8.2f  p99 %8.2f  max %8.2f%s@."
        (class_label c.cs_class) c.cs_count (p c.cs_hist 50.0)
        (p c.cs_hist 90.0) (p c.cs_hist 99.0)
        (Timing.Histogram.max_ms c.cs_hist)
        (if c.cs_digest_mismatches > 0 then "  DIGEST MISMATCH" else ""))
    r.r_classes
