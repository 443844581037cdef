(** The single writer: one master session of persistent document
    versions, a WAL, and epoch publication.

    A writer owns the master {!Xmark_store.Updates.session},
    reconstructed from the base snapshot (plus WAL replay on reopen).
    Each {!commit} validates and applies one update to it, then appends
    the record to the log and fsyncs before acknowledging.  An update
    never mutates a node an earlier version can reach: it path-copies
    the spine down to the entity it touches.  {!publish} adopts the
    master's current store, patched from the previous epoch's in time
    proportional to the change, for the server to install as the next
    epoch — in-flight readers keep the store they started with, which
    is the whole isolation story.

    Commit ordering: apply first, log second.  [Updates] validates
    completely before its first mutation, so a rejected update touches
    neither tree nor log; a crash between apply and fsync loses only an
    {e unacknowledged} commit (the client never saw an LSN).  If the
    disk write itself fails the in-memory tree is ahead of the log and
    the writer poisons itself: every later commit is refused, because
    acknowledging anything after a lost write would break replay. *)

type t

type recovery_info = {
  fresh : bool;  (** no prior state existed; base snapshot was written *)
  replayed : int;  (** records re-applied from the log on reopen *)
  truncated_bytes : int;  (** torn-tail bytes dropped on reopen *)
}

val open_dir :
  ?level:Xmark_store.Backend_mainmem.level ->
  dir:string ->
  bootstrap:(unit -> Xmark_xml.Dom.node) ->
  unit ->
  t * recovery_info
(** Open (or initialize) the write state under [dir].  Fresh directory:
    [bootstrap ()] supplies the document, which is written to
    [dir/base.xms] and {e read back} — the master tree is always the
    decoded snapshot, so recovery replays onto byte-identical ground —
    then [dir/wal.log] is created bound to the base file's length and
    CRC.  Existing directory: the base is restored, the log is opened
    (header checked against the base file), any torn tail truncated and
    every intact record replayed.  [level] defaults to [`Full]
    (System D); it only applies to a fresh bootstrap — reopened state
    keeps serving the same document.
    @raise Xmark_persist.Page_io.Corrupt on a damaged base or log. *)

val commit : t -> Protocol.update -> (int * string option, Protocol.error) result
(** Validate, apply, append, fsync.  [Ok (lsn, assigned)] means the
    record is on disk; [assigned] is the identifier minted by
    [Register_person].  [Error (Rejected fault)] means nothing changed.
    [Error (Failed _)] after a disk failure — the writer is poisoned.
    Not thread-safe: the server serializes commits. *)

val publish : t -> Xmark_core.Runner.session
(** The immutable session of the current version.  Called once per
    commit, it costs what the commits since the last publish changed: a
    patch of the previous store, not a rebuild.  Only the first publish
    after opening, or after a commit that relabelled the document
    ({!Xmark_store.Updates}), builds the store from scratch. *)

val last_lsn : t -> int
(** LSN of the last durable record; [0] for a fresh log.  Doubles as
    the epoch number of the store {!publish} would build. *)

val checkpoint : t -> (int, Protocol.error) result
(** Compact the write state: write the master tree (base plus every
    committed record) as a fresh base snapshot — temp file, then an
    atomic rename over [base.xms] — and restart the log empty, bound
    to the new base.  [Ok n] is the number of records folded away;
    {!last_lsn} is 0 afterwards and recovery replays nothing, yet the
    reopened state answers every query with the digests the
    pre-checkpoint state had.  A crash between the rename and the log
    restart leaves a base/log binding mismatch the next {!open_dir}
    refuses as the typed [Corrupt] — detection, never a wrong replay.
    On any I/O failure the writer poisons itself ([Error (Failed _)],
    like {!commit} after a lost write).  Not thread-safe: serialize
    with commits. *)

val write_targets : t -> int * int
(** [(n_auctions, n_persons)] id-space bounds for workload writes —
    one past the highest ["open_auction<i>"] / ["person<i>"] suffix in
    the current tree.  Auctions closed earlier leave holes below the
    bound; a generator drawing from it simply collects some typed
    [Auction_closed] rejections, which a mixed workload expects. *)

val digest_of_session : Xmark_core.Runner.session -> int -> string
(** md5 hex of benchmark query [n]'s canonical answer on a session —
    the recovery check: replayed state must answer like the original. *)

val close : t -> unit
