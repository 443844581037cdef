(** Fixed-size domain pool with deterministic fork/join.

    The multicore execution layer of the harness: the benchmark matrix,
    the partitioned parts of bulkload and the query service all
    schedule through this one primitive, so they inherit the same
    determinism contract — for any pool size, a parallel run returns the
    same values, raises the same exception, and leaves the same
    {!Xmark_stats} totals as a sequential run of the same chunks.

    A pool of [jobs] delivers [jobs]-way parallelism: [jobs - 1] worker
    domains plus the submitting domain, which executes tasks alongside
    them during a join.  With [jobs = 1] no domains are spawned and
    every operation runs inline, which is the reference behaviour the
    differential suite compares against.

    Nested use is safe: a task that itself calls into a pool runs that
    region inline on its own domain, so composition (a parallel matrix
    cell whose bulkload is itself parallelizable) cannot deadlock.

    Fork/join submissions must come from one domain at a time — the
    harness drives a single fork/join batch per pool; tasks themselves
    never block on the pool.  {!async}/{!await} futures are the
    multi-producer entry point layered on the same queue: any number of
    domains may submit futures concurrently (the query service's client
    domains do), and an awaiting domain helps drain the queue instead of
    parking. *)

type pool

val create : jobs:int -> pool
(** Spawn a pool of [max 1 jobs] slots ([jobs - 1] domains). *)

val jobs : pool -> int

val shutdown : pool -> unit
(** Stop and join the worker domains; idempotent. *)

val with_pool : jobs:int -> (pool -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

(** {2 Fork/join} *)

val map_chunks : pool -> ?chunks:int -> ('a array -> 'b) -> 'a array -> 'b array
(** [map_chunks pool f xs] splits [xs] into at most [chunks] (default
    [4 * jobs pool]) contiguous chunks of near-uniform size, evaluates
    [f] over the chunks on the pool, and returns the per-chunk results
    in input order.  Empty input yields [[||]]; a chunk count above the
    item count degrades to one item per chunk.  If several chunks
    raise, the exception of the lowest-indexed one is re-raised after
    all chunks have finished. *)

val map_array : pool -> ('a -> 'b) -> 'a array -> 'b array
(** One task per element, results in input order. *)

val map : pool -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map_array}. *)

(** {2 Futures}

    Single-job submission, safe from any domain and from many domains at
    once — the primitive the query service dispatches requests with. *)

type 'a future

val async : pool -> (unit -> 'a) -> 'a future
(** Submit one job.  On a sequential pool ([jobs = 1]) or from inside a
    pool task the thunk runs inline before [async] returns; otherwise it
    is queued for the workers.  Thread-safe: any domain may call this
    concurrently. *)

val await : 'a future -> 'a
(** Block until the future resolves, returning its value or re-raising
    its exception with the original backtrace.  While the future is
    pending the calling domain helps execute queued jobs (possibly its
    own), so awaiting never wastes a domain.  The executing domain's
    {!Xmark_stats} deltas are absorbed into the awaiting domain's
    registry here — await each future exactly once, from the domain that
    owns the request. *)
