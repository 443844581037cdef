(** Global QName interning: dense integer symbols for element and
    attribute names.

    XMark's query workload is dominated by name tests, and the auction
    DTD has fewer than a hundred distinct names repeated millions of
    times at factor 1.0.  Interning maps each name to a small [int] so
    the hot paths compare and hash machine words instead of strings,
    and tag-partitioned structures can be plain arrays indexed by
    symbol.

    Id assignment is deterministic: the empty string is symbol 0 (DOM
    text nodes report it as their name) and the DTD vocabulary —
    element names in declaration order, then the attribute-only names —
    occupies ids [1..seeded_count - 1] identically in every process and
    on every domain.  Names outside the seeded vocabulary fall
    back to a mutex-guarded table and receive ids in first-intern
    order, which is deterministic only for a deterministic intern
    sequence; persistent artefacts therefore never store raw dynamic
    ids (snapshots carry their own content-derived dictionary, see
    lib/persist).

    Domain safety: the seeded fast path is immutable after module
    initialisation and safe to read from any domain without
    synchronisation.  The dynamic slow path serialises writers with a
    mutex and publishes both the id map and the reverse [to_string]
    array through [Atomic.t] snapshots, so concurrent readers never
    observe a torn table. *)

type t = private int
(** A symbol.  [private int] so stores can use symbols directly as
    array indexes without a conversion call. *)

val empty : t
(** Symbol 0: the empty string.  Doubles as the "not an element"
    marker in stores that keep one tag slot per node. *)

val intern : string -> t
(** [intern name] returns the symbol for [name], assigning a fresh id
    if the name has never been seen.  Constant-time and allocation-free
    for the seeded DTD vocabulary. *)

val intern_sub : string -> pos:int -> len:int -> t
(** [intern_sub s ~pos ~len] interns the substring [s.[pos .. pos+len-1]]
    without allocating when it hits the seeded vocabulary — the SAX
    parser's tag-name path.  Raises [Invalid_argument] if the range is
    out of bounds. *)

val to_string : t -> string
(** The interned name.  A shared string: callers must not mutate it. *)

val to_int : t -> int
(** The dense id, for storage in columns and snapshot sections. *)

val of_int : int -> t
(** Inverse of [to_int].  Raises [Invalid_argument] if no symbol with
    that id exists yet. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val count : unit -> int
(** Number of symbols interned so far (seeded vocabulary included). *)

val seeded_count : int
(** Ids [0 .. seeded_count - 1] are pre-assigned at module
    initialisation and identical in every process. *)

val seeded_names : unit -> string list
(** The pre-seeded vocabulary in id order, starting with the empty
    string at id 0.  Exposed so tests can cross-check it against the
    generator's DTD tables (lib/xml cannot depend on lib/xmlgen). *)
