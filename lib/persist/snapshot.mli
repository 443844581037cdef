(** Snapshot files: a checksummed, versioned, paged container for a
    loaded XMark session.

    A snapshot holds one payload — the parsed DOM, the raw document
    text, or the relational image of System B (shredded) or System C
    (schema-mapped) — split into named {e sections}, one table each.

    {b File layout.}  The file is a whole number of
    {!Page_io.page_size}-byte pages, each carrying
    {!Page_io.payload_size} content bytes and a CRC trailer.  Pages
    [0..h-1] hold the header blob; each section occupies the contiguous
    page run the header's directory names.  The header starts with a
    fixed prelude (magic, format version, endianness marker, page size,
    header length) readable without CRC machinery, so version/magic
    mismatches report cleanly even on files whose pages never verify.
    The directory records each section's name, byte length, page run
    and whole-section CRC; a final CRC guards the header itself.

    {b Determinism.}  Section encoding order, page assignment and all
    integer widths are fixed — the same payload produces byte-identical
    files. *)

type b_image = {
  bi_tags : string list;  (** element tags, first-encounter order *)
  bi_tag_tables : Xmark_relational.Table.t list;  (** aligned with [bi_tags] *)
  bi_text : Xmark_relational.Table.t;
  bi_attr_tables : (string * Xmark_relational.Table.t) list;
      (** keyed ["tag@attr"], first-encounter order *)
}
(** The relational image of System B's shredded store — everything the
    backend cannot rebuild from scratch without re-parsing. *)

type payload =
  | Dom of Xmark_xml.Dom.node
  | Relational_b of b_image
  | Relational_c of Xmark_relational.Table.t list
      (** the ten schema relations, catalog registration order *)
  | Text of string  (** raw document text *)

val write : path:string -> system:char -> payload -> unit
(** Encode, paginate and write the payload to [path] (truncating any
    existing file).  [system] is recorded in the header so a loader can
    reject a snapshot replayed against the wrong backend. *)

val probe : string -> char * string * int
(** [(system, payload kind, payload bytes)] from the header and
    directory alone — no section is read or decoded.  [kind] is
    ["dom"], ["relational-b"], ["relational-c"] or ["text"].  Like
    {!read}, strictly read-only: a fleet parent probes the snapshot it
    is about to hand to N forked workers, which then restore it
    concurrently from the same file.
    @raise Page_io.Corrupt on truncation, bad magic, version mismatch,
    or a damaged header. *)

val read : ?capacity:int -> string -> char * payload
(** Read a snapshot back through a {!Pager} of [capacity] pages,
    returning the recorded system letter and the payload.  A restored
    DOM arrives document-order indexed; restored tables arrive sealed.
    @raise Page_io.Corrupt for truncation, bad magic, an unsupported
    format version, a checksum mismatch (page or section), or a
    malformed directory/section encoding. *)
