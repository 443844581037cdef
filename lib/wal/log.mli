(** The append-only log file: CRC-framed records behind a header that
    binds the log to one base snapshot.

    {b Layout.}  A fixed 25-byte header — magic ["XMWAL001"], a u8
    format version, the base snapshot's byte length (i64) and CRC-32
    (u32), and a u32 CRC over the preceding bytes — followed by record
    frames: u32 payload length, u32 payload CRC-32, payload
    ({!Record.encode}).  All integers little-endian via
    {!Xmark_persist.Codec}, matching the snapshot format.

    {b Recovery semantics.}  Scanning distinguishes two failure shapes.
    A frame that does not fit — short tail, length beyond the file or
    the 1 MiB cap, payload CRC mismatch — is a {e torn tail}: the write
    that produced it never completed, every prior record is intact, so
    the scan stops and reopening truncates the garbage.  A frame whose
    CRC verifies but whose payload does not decode, or whose LSN breaks
    the [prev+1] chain, cannot be produced by a crashed writer — that
    is {e corruption} and raises the typed
    {!Xmark_persist.Page_io.Corrupt}.  A crashed writer can only tear
    the {e final} append, so a failed frame is accepted as torn only if
    no intact frame with a later LSN follows it; a damaged frame with
    committed records after it (a mid-log bit flip) also raises
    [Corrupt] instead of silently truncating the intact suffix.
    Decoding is total: no other exception escapes a scan. *)

type t

val max_record : int
(** Largest encoded record payload the log accepts — and the largest a
    recovery scan will treat as a possible frame (1 MiB). *)

type recovery = {
  records : Record.t list;  (** every intact record, LSN order *)
  truncated_bytes : int;  (** torn-tail bytes dropped (0 = clean) *)
  last_lsn : int;  (** 0 when the log is empty *)
}

val create : path:string -> base_len:int -> base_crc:int -> t
(** Create (truncate) a log bound to a base snapshot of [base_len]
    bytes with checksum [base_crc]; header is written and fsynced. *)

val open_ : ?expect_base:int * int -> string -> t * recovery
(** Reopen an existing log: verify the header (against
    [expect_base = (len, crc)] when given), scan every record, truncate
    any torn tail in place, and position for append.
    @raise Xmark_persist.Page_io.Corrupt on a damaged header, a base
    binding mismatch, or mid-log corruption. *)

val scan_string : string -> recovery
(** Pure scan of complete log-file bytes (header + frames), for
    recovery inspection and fuzzing; never touches the filesystem.
    @raise Xmark_persist.Page_io.Corrupt as {!open_}. *)

val append : t -> Record.op -> int
(** Frame, write and fsync one record; returns its assigned LSN
    ([last_lsn + 1]).  Raises [Invalid_argument] — before touching the
    file — if the encoded record exceeds {!max_record}, since recovery
    would drop a larger frame as a torn tail; callers wanting a typed
    rejection must bound records first (see [Writer.commit]).  Raises
    [Unix.Unix_error] if the disk write fails — the caller must treat
    the log as poisoned, since the on-disk tail is then unknown. *)

val last_lsn : t -> int

val close : t -> unit
