(* Fixed-size domain pool with deterministic fork/join.

   The benchmark matrix is embarrassingly parallel (7 systems x 20
   queries, each cell independent), and so are chunked table scans and
   the per-section work of bulkload.  This module provides the one
   scheduling primitive they all share: split the work into contiguous
   chunks, run the chunks on a fixed set of domains, join the results in
   input order.

   Determinism contract: for any pool size, [map_chunks pool f xs]
   returns the same value as [Array.map f (chunk xs)] evaluated
   sequentially, raises the same (lowest-index) exception, and leaves
   the same totals in the Xmark_stats registry.  The last part works
   because a worker domain accumulates statistics into its private
   registry, exports the deltas after each task, and the joining domain
   absorbs them in task order — counter addition commutes, so totals are
   independent of interleaving.

   Scheduling: [create ~jobs] spawns [jobs - 1] worker domains; the
   submitting domain executes tasks alongside the workers during a join,
   so a pool of N delivers N-way parallelism without an idle submitter.
   A task that itself calls into the pool (a benchmark cell whose
   bulkload is parallelizable, say) runs that nested region inline — the
   pool never blocks a worker on the queue it serves, so composition
   cannot deadlock. *)

type job = unit -> unit

type pool = {
  njobs : int;
  queue : job Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  mutable shutting_down : bool;
  mutable domains : unit Domain.t list;
}

(* true while the current domain is a pool worker: nested submissions
   from inside a task fall back to inline sequential execution *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let worker_loop pool () =
  Domain.DLS.set in_worker true;
  let rec next () =
    Mutex.lock pool.lock;
    let rec wait () =
      if pool.shutting_down then begin
        Mutex.unlock pool.lock;
        None
      end
      else
        match Queue.take_opt pool.queue with
        | Some j ->
            Mutex.unlock pool.lock;
            Some j
        | None ->
            Condition.wait pool.work_available pool.lock;
            wait ()
    in
    match wait () with
    | None -> ()
    | Some j ->
        j ();
        next ()
  in
  next ()

let create ~jobs =
  let njobs = max 1 jobs in
  let pool =
    {
      njobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      shutting_down = false;
      domains = [];
    }
  in
  pool.domains <- List.init (njobs - 1) (fun _ -> Domain.spawn (worker_loop pool));
  pool

let jobs pool = pool.njobs

let shutdown pool =
  Mutex.lock pool.lock;
  pool.shutting_down <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* --- fork/join ------------------------------------------------------------ *)

(* Split [n] items into at most [limit] contiguous chunks of
   near-uniform size: [(offset, length); ...] covering 0..n-1 in
   order. *)
let chunk_bounds ~limit n =
  if n = 0 then []
  else begin
    let k = max 1 (min limit n) in
    let base = n / k and extra = n mod k in
    let rec go i off acc =
      if i >= k then List.rev acc
      else
        let len = base + if i < extra then 1 else 0 in
        go (i + 1) (off + len) ((off, len) :: acc)
    in
    go 0 0 []
  end

exception Task_failed of int * exn * Printexc.raw_backtrace

let run_tasks pool (tasks : (unit -> 'b) array) : 'b array =
  let n = Array.length tasks in
  let inline () = Array.map (fun f -> f ()) tasks in
  if n = 0 then [||]
  else if pool.njobs <= 1 || n <= 1 || Domain.DLS.get in_worker then inline ()
  else begin
    let results : 'b option array = Array.make n None in
    let failures : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let stats : Xmark_stats.export array = Array.make n [] in
    let remaining = Atomic.make n in
    let scope = Xmark_stats.current_scope () in
    let finish_one () =
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        (* last task: wake the joiner in case it is parked *)
        Mutex.lock pool.lock;
        Condition.broadcast pool.batch_done;
        Mutex.unlock pool.lock
      end
    in
    let job i () =
      (match Xmark_stats.with_scope_path scope (fun () -> tasks.(i) ()) with
      | r -> results.(i) <- Some r
      | exception e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      (* a worker's counters travel back with the task; the joiner's own
         inline executions land in its registry directly *)
      if Domain.DLS.get in_worker then stats.(i) <- Xmark_stats.export_and_clear ();
      finish_one ()
    in
    Mutex.lock pool.lock;
    for i = 0 to n - 1 do
      Queue.add (job i) pool.queue
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock;
    (* the joiner helps drain the queue, then parks until the last
       worker-held task finishes *)
    let rec join () =
      if Atomic.get remaining > 0 then begin
        Mutex.lock pool.lock;
        let j = Queue.take_opt pool.queue in
        Mutex.unlock pool.lock;
        match j with
        | Some j ->
            j ();
            join ()
        | None ->
            Mutex.lock pool.lock;
            while Atomic.get remaining > 0 do
              Condition.wait pool.batch_done pool.lock
            done;
            Mutex.unlock pool.lock
      end
    in
    join ();
    (* merge worker statistics in task order (sums commute; the fixed
       order keeps even pathological counters reproducible) *)
    Array.iter Xmark_stats.absorb stats;
    (* deterministic failure: re-raise the lowest-index exception *)
    Array.iteri
      (fun i f ->
        match f with
        | Some (e, bt) -> raise (Task_failed (i, e, bt))
        | None -> ())
      failures;
    Array.map
      (function Some r -> r | None -> assert false (* every slot filled *))
      results
  end

let run_tasks pool tasks =
  try run_tasks pool tasks
  with Task_failed (_, e, bt) -> Printexc.raise_with_backtrace e bt

(* --- futures: multi-producer submission (the query service) --------------- *)

(* [run_tasks] assumes one submitting domain per batch; a server has many
   client domains submitting independently.  A future is a single job
   pushed onto the same queue, so client submissions and fork/join
   batches share the pool's workers.  While a future is pending its
   awaiting domain HELPS drain the queue (any job, not just its own), so
   clients are compute domains too and a pool of N workers serving M
   clients delivers up to [N + M]-way parallelism with nobody parked on
   a full queue.

   Statistics follow the run_tasks discipline: the executing domain
   exports its counter deltas into the future and the awaiting domain
   absorbs them, so per-request counters land on the domain that owns
   the request regardless of where it ran. *)

type 'a future_state =
  | Pending
  | Resolved of 'a * Xmark_stats.export
  | Raised of exn * Printexc.raw_backtrace * Xmark_stats.export

type 'a future = {
  f_pool : pool;
  f_lock : Mutex.t;
  f_done : Condition.t;
  mutable f_state : 'a future_state;
}

let resolve fut st =
  Mutex.lock fut.f_lock;
  fut.f_state <- st;
  Condition.broadcast fut.f_done;
  Mutex.unlock fut.f_lock

let async pool f =
  let fut =
    { f_pool = pool; f_lock = Mutex.create (); f_done = Condition.create ();
      f_state = Pending }
  in
  if pool.njobs <= 1 || Domain.DLS.get in_worker then begin
    (* sequential pool, or already on a pool domain: run now, on this
       domain — counters stay in place, no export round-trip *)
    (match f () with
    | v -> fut.f_state <- Resolved (v, [])
    | exception e -> fut.f_state <- Raised (e, Printexc.get_raw_backtrace (), []));
    fut
  end
  else begin
    let scope = Xmark_stats.current_scope () in
    let job () =
      (* the job may run on a helping client domain: mark it a worker for
         the duration so nested pool use (a parallel scan inside the
         query) falls back to inline execution instead of re-submitting *)
      let was_worker = Domain.DLS.get in_worker in
      Domain.DLS.set in_worker true;
      let outcome =
        match Xmark_stats.with_scope_path scope f with
        | v -> `Ok v
        | exception e -> `Exn (e, Printexc.get_raw_backtrace ())
      in
      let stats = Xmark_stats.export_and_clear () in
      Domain.DLS.set in_worker was_worker;
      resolve fut
        (match outcome with
        | `Ok v -> Resolved (v, stats)
        | `Exn (e, bt) -> Raised (e, bt, stats))
    in
    Mutex.lock pool.lock;
    Queue.add job pool.queue;
    Condition.signal pool.work_available;
    Mutex.unlock pool.lock;
    fut
  end

let await fut =
  let finish st =
    match st with
    | Resolved (v, stats) ->
        Xmark_stats.absorb stats;
        v
    | Raised (e, bt, stats) ->
        Xmark_stats.absorb stats;
        Printexc.raise_with_backtrace e bt
    | Pending -> assert false
  in
  let rec loop () =
    Mutex.lock fut.f_lock;
    match fut.f_state with
    | Pending ->
        Mutex.unlock fut.f_lock;
        (* help: run any queued job (maybe our own) rather than park *)
        Mutex.lock fut.f_pool.lock;
        let j = Queue.take_opt fut.f_pool.queue in
        Mutex.unlock fut.f_pool.lock;
        (match j with
        | Some j ->
            j ();
            loop ()
        | None ->
            Mutex.lock fut.f_lock;
            (match fut.f_state with
            | Pending -> Condition.wait fut.f_done fut.f_lock
            | _ -> ());
            Mutex.unlock fut.f_lock;
            loop ())
    | st ->
        Mutex.unlock fut.f_lock;
        finish st
  in
  loop ()

let map_chunks pool ?chunks f xs =
  let limit = match chunks with Some c -> max 1 c | None -> 4 * pool.njobs in
  let bounds = chunk_bounds ~limit (Array.length xs) in
  let tasks =
    Array.of_list
      (List.map (fun (off, len) -> fun () -> f (Array.sub xs off len)) bounds)
  in
  run_tasks pool tasks

let map_array pool f xs =
  run_tasks pool (Array.map (fun x -> fun () -> f x) xs)

let map pool f xs = Array.to_list (map_array pool f (Array.of_list xs))
