module Runner = Xmark_core.Runner
module Cancel = Xmark_xquery.Cancel
module Stats = Xmark_stats

(* A server owns the CURRENT EPOCH — an immutable loaded store plus its
   prepared-plan cache — and turns it into a shared resource: any
   number of client domains call [handle] concurrently.

   Reads: the request grabs the current epoch once at dispatch and uses
   that session and cache throughout.  Epochs are immutable, so a read
   that overlaps a commit simply answers from the epoch it started in —
   snapshot isolation by construction, no read locks anywhere.

   Writes (servers created with [create_writable]): serialized through
   [write_lock]; each commit applies to the writer's master (a new
   path-copied version; no version is ever mutated), appends + fsyncs
   the WAL record, then publishes the immutable session patched from
   the previous epoch's as the next epoch via one atomic store.  The plan
   cache is per-epoch — prepared plans are bound to the store they were
   compiled against, so reusing them across epochs would answer from
   the wrong store.  A retiring epoch's cache stats are folded into
   retired counters at the swap; readers still pinned to that epoch may
   increment its cache afterwards, and those late events are dropped —
   plan-cache totals are a close approximation under concurrent writes,
   never a double-count (see [totals]), not an exact ledger.

   Admission: [max_inflight] requests execute at once; up to
   [queue_depth] more wait for a slot; beyond that a request is rejected
   immediately with [Overloaded] — the closed-loop workload driver never
   sees rejections by default (clients wait), but an open-loop caller
   gets typed backpressure instead of an unbounded queue.

   Execution: the request body runs inline on the calling domain or
   thread; concurrency comes from the callers (client domains, wire
   connection threads, fleet processes), never from inside one request.

   Deadlines: [deadline_ms] covers queue wait plus execution.  A read
   that is already late when it reaches the front is timed out before
   executing; one that goes long mid-evaluation is aborted through
   [Cancel] polls in Eval's iteration loops.  A write checks only at
   dequeue: a commit is not abortable mid-fsync, so it either times out
   before touching anything or runs to completion.  Timeouts are typed —
   the client gets [Timeout], never a wrong answer or a half-commit. *)

type config = {
  max_inflight : int;
  queue_depth : int;
  deadline_ms : float option;
  plan_cache : int;
}

let default_config =
  { max_inflight = 4; queue_depth = 64; deadline_ms = None; plan_cache = 64 }

(* Both re-exported from [Protocol] so pattern matches and field
   accesses written against [Server] keep working — the service speaks
   one vocabulary whether the caller is in-process or on the wire. *)
type error = Protocol.error =
  | Failed of string
  | Bad_request of string
  | Unsupported of string
  | Overloaded of { inflight : int; queued : int }
  | Timeout of { elapsed_ms : float }
  | Unavailable of string
  | Rejected of Protocol.write_fault
  | Read_only of string
  | Wrong_shard of { served : int; requested : int }
  | Not_sharded of string

type reply = Protocol.reply = {
  items : int;
  digest : string;  (* md5 hex of the canonical result *)
  epoch : int;
  latency_ms : float;  (* admission + queue + execution *)
  queue_ms : float;
  plan_hit : bool;
}

type totals = {
  served : int;
  committed : int;
  rejected : int;
  write_rejected : int;
  timed_out : int;
  failed : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
}

type epoch_state = {
  ep_epoch : int;
  ep_session : Runner.session;
  ep_cache : Plan_cache.t;
}

type t = {
  current : epoch_state Atomic.t;
  scope : int option;  (* the shard this server serves, if any *)
  writer : Writer.t option;
  write_lock : Mutex.t;  (* serializes commit + publish *)
  cfg : config;
  lock : Mutex.t;
  slot_free : Condition.t;
  mutable inflight : int;
  mutable queued : int;
  mutable n_served : int;
  mutable n_committed : int;
  mutable n_rejected : int;
  mutable n_write_rejected : int;
  mutable n_timed_out : int;
  mutable n_failed : int;
  (* stats of plan caches from epochs already replaced *)
  mutable retired_hits : int;
  mutable retired_misses : int;
  mutable retired_evictions : int;
}

let clamp config =
  { config with
    max_inflight = max 1 config.max_inflight;
    queue_depth = max 0 config.queue_depth }

let make ?shard ~config ~writer ~epoch session =
  let config = clamp config in
  {
    scope = shard;
    current =
      Atomic.make
        {
          ep_epoch = epoch;
          ep_session = session;
          ep_cache = Plan_cache.create ~capacity:config.plan_cache;
        };
    writer;
    write_lock = Mutex.create ();
    cfg = config;
    lock = Mutex.create ();
    slot_free = Condition.create ();
    inflight = 0;
    queued = 0;
    n_served = 0;
    n_committed = 0;
    n_rejected = 0;
    n_write_rejected = 0;
    n_timed_out = 0;
    n_failed = 0;
    retired_hits = 0;
    retired_misses = 0;
    retired_evictions = 0;
  }

let create ?shard ?(config = default_config) session =
  make ?shard ~config ~writer:None ~epoch:0 session

let create_writable ?(config = default_config) writer =
  make ~config ~writer:(Some writer) ~epoch:(Writer.last_lsn writer)
    (Writer.publish writer)

let session t = (Atomic.get t.current).ep_session
let epoch t = (Atomic.get t.current).ep_epoch
let shard t = t.scope
let writable t = t.writer <> None
let config t = t.cfg

(* Request counters are exact.  Plan-cache totals are current-epoch
   stats plus the folded counters of retired epochs; if an epoch swap
   lands between reading the two, the just-retired cache would be
   counted both ways, so retry on a changed epoch (bounded — commits
   take milliseconds, this read takes nanoseconds).  What remains is a
   one-sided approximation: events from readers still pinned to a
   retired epoch after its fold are dropped, never double-counted. *)
let totals t =
  let rec go attempts =
    let ep = Atomic.get t.current in
    let hits, misses, evictions = Plan_cache.stats ep.ep_cache in
    let r =
      Mutex.protect t.lock (fun () ->
          {
            served = t.n_served;
            committed = t.n_committed;
            rejected = t.n_rejected;
            write_rejected = t.n_write_rejected;
            timed_out = t.n_timed_out;
            failed = t.n_failed;
            plan_hits = t.retired_hits + hits;
            plan_misses = t.retired_misses + misses;
            plan_evictions = t.retired_evictions + evictions;
          })
    in
    if attempts > 0 && Atomic.get t.current != ep then go (attempts - 1)
    else r
  in
  go 3

(* Take an execution slot, waiting in the bounded queue if needed. *)
let acquire t =
  Mutex.lock t.lock;
  if t.inflight < t.cfg.max_inflight then begin
    t.inflight <- t.inflight + 1;
    Mutex.unlock t.lock;
    Ok ()
  end
  else if t.queued >= t.cfg.queue_depth then begin
    t.n_rejected <- t.n_rejected + 1;
    let e = Overloaded { inflight = t.inflight; queued = t.queued } in
    Mutex.unlock t.lock;
    Stats.incr "service_rejections";
    Error e
  end
  else begin
    t.queued <- t.queued + 1;
    while t.inflight >= t.cfg.max_inflight do
      Condition.wait t.slot_free t.lock
    done;
    t.queued <- t.queued - 1;
    t.inflight <- t.inflight + 1;
    Mutex.unlock t.lock;
    Ok ()
  end

let release t disposition =
  Mutex.lock t.lock;
  t.inflight <- t.inflight - 1;
  (match disposition with
  | `Ok -> t.n_served <- t.n_served + 1
  | `Committed -> t.n_committed <- t.n_committed + 1
  | `Write_rejected -> t.n_write_rejected <- t.n_write_rejected + 1
  | `Timeout -> t.n_timed_out <- t.n_timed_out + 1
  | `Failed -> t.n_failed <- t.n_failed + 1);
  Condition.signal t.slot_free;
  Mutex.unlock t.lock

(* The deadline check Eval polls.  Polls fire per node visited, so only
   read the clock on the 1st, 65th, 129th... poll.  Sampling the first
   poll matters: a vectorized plan polls once per block, and a query with
   fewer than 64 blocks would otherwise never see its deadline.  The
   deadline stays relative to [t0] on the monotonic clock, so a
   wall-clock step cannot move it. *)
let deadline_check ~t0 ~deadline_ms =
  let polls = ref 0 in
  fun () ->
    incr polls;
    if !polls land 63 = 1 then begin
      let elapsed = Stats.ms_since t0 in
      if elapsed > deadline_ms then
        raise
          (Cancel.Cancelled
             (Printf.sprintf "deadline exceeded after %.1f ms" elapsed))
    end

(* [?deadline_ms] overrides the server-wide deadline for this one
   request — the fuzz harness uses it to inject deadline storms into a
   server whose healthy clients keep their generous budget. *)
let submit_with ?deadline_ms ?partial_shard t ~key ~prepare =
  Stats.incr "service_requests";
  let t0 = Stats.now_ns () in
  (* pin the epoch before admission: session and plan cache travel
     together for the whole request *)
  let ep = Atomic.get t.current in
  match acquire t with
  | Error e -> Error e
  | Ok () -> (
      let queue_ms = Stats.ms_since t0 in
      let deadline_ms =
        match deadline_ms with Some _ as d -> d | None -> t.cfg.deadline_ms
      in
      let work () =
        (match deadline_ms with
        | Some ms when Stats.ms_since t0 > ms ->
            raise (Cancel.Cancelled "deadline exceeded while queued")
        | _ -> ());
        let body () =
          let plan, plan_hit =
            Plan_cache.checkout ep.ep_cache key (fun () -> prepare ep.ep_session)
          in
          let outcome =
            Fun.protect
              ~finally:(fun () -> Plan_cache.checkin ep.ep_cache key plan)
              (fun () -> Runner.execute_prepared plan)
          in
          (* a scatter-gather leg also carries the per-item canonical
             strings — the coordinator merges items, not digests *)
          let payload =
            match partial_shard with
            | None -> []
            | Some _ ->
                List.map Xmark_xml.Canonical.of_node outcome.Runner.result
          in
          ( outcome.Runner.items,
            Digest.to_hex (Digest.string (Runner.canonical outcome)),
            plan_hit,
            payload )
        in
        match deadline_ms with
        | None -> body ()
        | Some ms -> Cancel.with_check (deadline_check ~t0 ~deadline_ms:ms) body
      in
      let elapsed () = Stats.ms_since t0 in
      match work () with
      | items, digest, plan_hit, payload ->
          release t `Ok;
          Ok
            (match partial_shard with
            | Some shard ->
                Protocol.Partial_reply
                  {
                    Protocol.shard;
                    payload;
                    epoch = ep.ep_epoch;
                    latency_ms = elapsed ();
                    queue_ms;
                    plan_hit;
                  }
            | None ->
                Protocol.Reply
                  {
                    items;
                    digest;
                    epoch = ep.ep_epoch;
                    latency_ms = elapsed ();
                    queue_ms;
                    plan_hit;
                  })
      | exception Cancel.Cancelled _ ->
          release t `Timeout;
          Stats.incr "service_timeouts";
          Error (Timeout { elapsed_ms = elapsed () })
      | exception Runner.Unsupported msg ->
          release t `Failed;
          Error (Unsupported msg)
      | exception e ->
          release t `Failed;
          Error (Failed (Printexc.to_string e)))

(* One committed update = one new epoch.  The write lock serializes
   apply + append + publish; the epoch swap itself is a single atomic
   store, so readers always see a complete (session, cache, number)
   triple. *)
let commit_update ?deadline_ms t w u =
  Stats.incr "service_requests";
  let t0 = Stats.now_ns () in
  match acquire t with
  | Error e -> Error e
  | Ok () -> (
      let queue_ms = Stats.ms_since t0 in
      let deadline_ms =
        match deadline_ms with Some _ as d -> d | None -> t.cfg.deadline_ms
      in
      let elapsed () = Stats.ms_since t0 in
      let late =
        match deadline_ms with Some ms -> elapsed () > ms | None -> false
      in
      if late then begin
        release t `Timeout;
        Stats.incr "service_timeouts";
        Error (Timeout { elapsed_ms = elapsed () })
      end
      else begin
        (* [Mutex.protect] so the write lock survives anything the body
           raises — a commit that relabels deep-copies and reindexes the
           whole tree and the next [Writer.publish] rebuilds the store
           (either can run out of memory), and [Writer.commit] may leak
           an exception [Updates] does not own.  The exception arm below
           releases the admission slot for the same reason: a failed
           commit must never wedge the write path. *)
        match
          Mutex.protect t.write_lock (fun () ->
              match Writer.commit w u with
              | Error e -> Error e
              | Ok (lsn, assigned) ->
                  (* if publish raises here, the record is durable but
                     unpublished: the client sees [Failed], readers keep
                     the old epoch, and the next successful commit's
                     publish (or a restart replay) carries the change *)
                  let session' = Writer.publish w in
                  let old = Atomic.get t.current in
                  let retired = Plan_cache.stats old.ep_cache in
                  Atomic.set t.current
                    {
                      ep_epoch = lsn;
                      ep_session = session';
                      ep_cache = Plan_cache.create ~capacity:t.cfg.plan_cache;
                    };
                  Ok (lsn, assigned, retired))
        with
        | Ok (lsn, assigned, (h, m, e)) ->
            Mutex.protect t.lock (fun () ->
                t.retired_hits <- t.retired_hits + h;
                t.retired_misses <- t.retired_misses + m;
                t.retired_evictions <- t.retired_evictions + e);
            release t `Committed;
            Ok
              (Protocol.Committed
                 {
                   Protocol.lsn;
                   epoch = lsn;
                   assigned;
                   latency_ms = elapsed ();
                   queue_ms;
                 })
        | Error (Rejected _ as e) ->
            release t `Write_rejected;
            Error e
        | Error e ->
            release t `Failed;
            Error e
        | exception e ->
            release t `Failed;
            Error (Failed ("commit failed: " ^ Printexc.to_string e))
      end)

(* The one entry point: a typed [Protocol.request] in, a typed
   [Protocol.response] out.  Requests that fail validation are refused
   as [Bad_request] before touching admission control — they consume no
   slot and skew no latency numbers, but are counted as failures. *)
let handle t (req : Protocol.request) =
  match req.Protocol.query with
  | Protocol.Benchmark n when n < 1 || n > 20 ->
      Mutex.protect t.lock (fun () -> t.n_failed <- t.n_failed + 1);
      Error
        (Bad_request (Printf.sprintf "benchmark query %d out of range 1-20" n))
  | Protocol.Benchmark n ->
      submit_with ?deadline_ms:req.Protocol.deadline_ms t
        ~key:("#" ^ string_of_int n)
        ~prepare:(fun session -> Runner.prepare session.Runner.store n)
  | Protocol.Text qtext ->
      submit_with ?deadline_ms:req.Protocol.deadline_ms t ~key:qtext
        ~prepare:(fun session -> Runner.prepare_text session.Runner.store qtext)
  | Protocol.Update u -> (
      match t.writer with
      | None ->
          Mutex.protect t.lock (fun () -> t.n_failed <- t.n_failed + 1);
          Error (Read_only "this server has no write path (start it with --wal)")
      | Some w -> commit_update ?deadline_ms:req.Protocol.deadline_ms t w u)
  | Protocol.Partial { shard; op } -> (
      match t.scope with
      | None ->
          Mutex.protect t.lock (fun () -> t.n_failed <- t.n_failed + 1);
          Error
            (Not_sharded
               "this server serves a whole store, not a shard (no shard scope)")
      | Some served when served <> shard ->
          Mutex.protect t.lock (fun () -> t.n_failed <- t.n_failed + 1);
          Error (Wrong_shard { served; requested = shard })
      | Some served -> (
          match op with
          | Xmark_core.Merge.Run n when n < 1 || n > 20 ->
              Mutex.protect t.lock (fun () -> t.n_failed <- t.n_failed + 1);
              Error
                (Bad_request
                   (Printf.sprintf "benchmark query %d out of range 1-20" n))
          | Xmark_core.Merge.Run n ->
              submit_with ?deadline_ms:req.Protocol.deadline_ms
                ~partial_shard:served t
                ~key:("#" ^ string_of_int n)
                ~prepare:(fun session -> Runner.prepare session.Runner.store n)
          | Xmark_core.Merge.Collect qtext ->
              submit_with ?deadline_ms:req.Protocol.deadline_ms
                ~partial_shard:served t ~key:qtext
                ~prepare:(fun session ->
                  Runner.prepare_text session.Runner.store qtext)))

let error_to_string = Protocol.error_to_string
