(** XML serialization of {!Dom} trees.

    Output uses 7-bit ASCII and escapes the five predefined entities, which
    is exactly the character-set contract of the benchmark document
    (paper, Section 4.4). *)

val escape_text : string -> string
(** Escape ampersand and angle brackets for character-data position. *)

val escape_attr : string -> string
(** Escape ampersand, left angle bracket and double quote for a
    double-quoted attribute value. *)

val add_escaped_char : Buffer.t -> [ `Text | `Attr ] -> char -> unit
(** Append one character escaped as {!escape_text} ([`Text]) or
    {!escape_attr} ([`Attr]) escapes it. *)

val to_buffer : ?indent:bool -> Buffer.t -> Dom.node -> unit
(** Serialize a subtree.  With [indent], children of purely element-content
    nodes are placed on their own indented lines; mixed content is emitted
    verbatim so no whitespace is invented inside text. *)

val to_string : ?indent:bool -> Dom.node -> string

val fragment_to_string : Dom.node list -> string
(** Serialize a node sequence without a surrounding element — the shape of
    an XQuery result. *)
