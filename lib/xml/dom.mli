(** In-memory XML tree.

    The node model follows the paper's restrictions (Section 4.4): elements,
    attributes and character data only — no namespaces, entities, notations
    or processing instructions.  Attributes are unordered name/value pairs
    attached to elements; element and text nodes carry a document-order
    key assigned by {!index}.

    Keys are {e gapped}: {!index} spaces consecutive nodes {!order_gap}
    apart, so a subtree inserted later can take keys between its
    neighbours without renumbering anything else.  Nothing may assume
    keys are dense: they are unique and increase in document order, and
    [\[order, hi)] holds exactly the keys of a node's subtree.

    Element names are interned {!Symbol.t} values: name tests are integer
    comparisons and a tree holds one boxed string less per element.  The
    string-typed constructors and accessors below intern/resolve at the
    boundary, so casual callers never see symbols. *)

type node = {
  mutable desc : desc;
  mutable parent : node option;
  mutable order : int;  (** document-order key; [-1] until {!index} runs *)
  mutable hi : int;  (** exclusive upper bound of the subtree's keys *)
}

and desc =
  | Element of element
  | Text of string

and element = {
  name : Symbol.t;  (** interned tag *)
  mutable attrs : (string * string) list;  (** in source order *)
  mutable children : node list;  (** in document order *)
}

val element : ?attrs:(string * string) list -> ?children:node list -> string -> node
(** [element name] builds an element node and sets the [parent] field of
    the given children.  The tag is interned; prefer {!element_sym} on
    hot paths that already hold a symbol. *)

val element_sym : ?attrs:(string * string) list -> ?children:node list -> Symbol.t -> node
(** Like {!element} from an already-interned tag. *)

val text : string -> node
(** Text node. *)

val append : node -> node -> unit
(** [append parent child] adds [child] as last child of [parent].
    @raise Invalid_argument if [parent] is a text node. *)

val order_gap : int
(** Distance between the keys {!index} gives consecutive nodes: 2{^16},
    which keeps a factor-10 document far below [max_int]. *)

val index : node -> int
(** [index root] keys the subtree in document order, the [i]-th node
    getting [i * order_gap], sets every [hi], and returns the number of
    nodes. *)

val number_from : node -> int -> int
(** [number_from n lo] keys a fresh subtree with consecutive keys from
    [lo] in document order, sets every [hi], and returns the next free
    key. *)

val order_of : node -> int
(** The node's document-order key.  A node without one is keyed first:
    {!index} runs on the root of its tree, so order-dependent operations
    never compare the [-1] placeholder.  Constructed query results are
    keyed this way, on first ask; a keyed tree must not gain nodes
    afterwards, since nothing renumbers it. *)

val name : node -> string
(** Element tag, or [""] for a text node. *)

val name_string : node -> string
(** Alias of {!name}: the tag resolved back to a string, for
    serialization and canonical output. *)

val name_sym : node -> Symbol.t
(** Interned tag, or {!Symbol.empty} for a text node. *)

val is_element : node -> bool

val children : node -> node list
(** Children of an element; [\[\]] for text nodes. *)

val attr : node -> string -> string option
(** Attribute lookup on an element. *)

val string_value : node -> string
(** Concatenation of all descendant text, in document order. *)

val iter : (node -> unit) -> node -> unit
(** Pre-order traversal of the subtree rooted at the argument. *)

val fold : ('a -> node -> 'a) -> 'a -> node -> 'a
(** Pre-order fold. *)

val size : node -> int
(** Number of nodes in the subtree. *)

val descendants_named : node -> string -> node list
(** All descendant elements (excluding self) with the given tag, in
    document order. *)

val find_element : node -> string -> node option
(** First descendant-or-self element with the given tag. *)

val deep_copy : node -> node
(** Structural copy with fresh parent links and unset keys. *)

val equal : node -> node -> bool
(** Structural equality: same tags, same attribute sets (order
    insensitive), same child sequences. *)
