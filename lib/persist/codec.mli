(** Binary encoding of snapshot section contents: explicit little-endian
    primitives, relational values and tables, and DOM trees.

    Encoders append to a [Buffer.t]; decoders consume a string with an
    internal cursor.  Every decode failure — short input, an unknown tag
    byte, trailing garbage — raises {!Page_io.Corrupt}, so malformed
    sections surface as the same typed error as checksum mismatches.

    Numbers round-trip exactly: ints travel as 64-bit two's complement
    and floats as their IEEE-754 bit patterns, which is what makes a
    restored store byte-identical to the one that was saved. *)

type decoder

val decoder : string -> decoder

val remaining : decoder -> int

(* --- encoders ------------------------------------------------------------ *)

val add_u8 : Buffer.t -> int -> unit

val add_u32 : Buffer.t -> int -> unit

val add_i64 : Buffer.t -> int -> unit

val add_f64 : Buffer.t -> float -> unit

val add_str : Buffer.t -> string -> unit
(** Length-prefixed (u32) bytes. *)

val add_value : Buffer.t -> Xmark_relational.Value.t -> unit

val add_table : Buffer.t -> Xmark_relational.Table.t -> unit
(** Name, column list, then the rows in row-identifier order. *)

type symdict
(** Element-name dictionary for a DOM section: every distinct tag in
    pre-order first-use order.  Indexes derive from document content
    alone (never from global symbol ids), so encoded bytes are identical
    across runs. *)

val symdict_of_dom : Xmark_xml.Dom.node -> symdict

val add_symdict : Buffer.t -> symdict -> unit
(** u32 count followed by the length-prefixed names in dictionary
    order. *)

val add_dom : Buffer.t -> dict:symdict -> Xmark_xml.Dom.node -> unit
(** Pre-order subtree encoding: elements carry a u32 dictionary index in
    place of their name, then attributes and child count; text nodes
    carry their characters. *)

(* --- decoders ------------------------------------------------------------ *)

val u8 : decoder -> int

val u32 : decoder -> int

val i64 : decoder -> int

val f64 : decoder -> float

val str : decoder -> string

val value : decoder -> Xmark_relational.Value.t

val table : decoder -> Xmark_relational.Table.t
(** The decoded table is sealed: concurrent readers see a pure array. *)

val symdict : decoder -> Xmark_xml.Symbol.t array
(** Decodes a dictionary section and interns every name, so element
    construction during {!dom} is a pure array read. *)

val dom : decoder -> dict:Xmark_xml.Symbol.t array -> Xmark_xml.Dom.node
(** Parent links are rebuilt; document-order numbers are {e not} — the
    caller indexes the root once the whole tree is back.
    @raise Page_io.Corrupt on a name id outside [dict]. *)

val finish : decoder -> unit
(** @raise Page_io.Corrupt if input remains — sections must decode
    exactly. *)
