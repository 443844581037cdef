(** Scatter-gather coordinator: one benchmark query, K shard legs.

    A coordinator owns one {e leg} per shard — either an in-process
    {!Xmark_service.Server.t} with that shard's scope, or the wire
    address of a fleet worker serving it.  {!run} fans the query's
    {!Xmark_core.Merge.ops} over all legs concurrently (one thread per
    shard; a shard executes its ops in order on its own connection),
    joins every leg, and merges the partial answers with
    {!Xmark_core.Merge.gather} — the result is byte-identical to the
    single-store canonical answer.

    {b Failure is typed and total.}  Every leg is joined before any
    merging: if any leg fails (worker dead, connection refused, typed
    server error), {!run} returns that error and {e no} partial answer
    leaks — there is no result built from a subset of shards.  Remote
    connections are dialed lazily and redialed after a transport
    failure, so a restarted worker serves the next query without
    rebuilding the coordinator.

    Accounts [shards_queried], [partials_merged] and [broadcast_bytes]
    to {!Xmark_stats}. *)

type leg =
  | Local of Xmark_service.Server.t
      (** must have been created with the matching [?shard] scope *)
  | Remote of Xmark_wire.Addr.t  (** a fleet worker's private address *)

type t

val create : leg list -> t
(** Legs in shard order: leg [i] serves shard [i].
    @raise Invalid_argument on an empty list or a [Local] leg whose
    server scope is missing or names a different shard. *)

val shards : t -> int

type answer = {
  items : int;
  canonical : string;  (** byte-identical to the single-store form *)
  digest : string;  (** md5 hex of [canonical] *)
}

val run : t -> int -> (answer, Xmark_service.Protocol.error) result
(** Execute benchmark query [q] (1-20) scatter-gather.  Out-of-range
    numbers return [Bad_request]; a failed leg returns its typed error
    (transport failures surface as [Unavailable]). *)

val close : t -> unit
(** Drop all remote connections (local legs are borrowed, not owned).
    Idempotent; the coordinator redials if used again. *)
