(** Main-memory DOM backends — the paper's Systems D, E and F.

    The three systems share one physical representation (a pointer-based
    tree) and differ in their access paths, which is how the paper
    describes them: "Systems D to F are main-memory based and only come
    with heuristic optimizers", with System D additionally keeping "a
    detailed structural summary of the database" that makes the regular
    path expression queries Q6/Q7 "surprisingly fast".

    - [`Full] (System D): structural summary — per-tag extents with
      subtree intervals for index-assisted descendant steps — plus an ID
      index and a lazily-built per-tag keyword index serving
      [keyword_search] (the full-text access path of Section 6.9).
    - [`Id_only] (System E): ID index, no structural summary.
    - [`Plain] (System F): pure navigation.

    A store is immutable once built.  The write path ({!Updates}) never
    mutates a node an earlier root can reach; it path-copies the spine
    down to the entity it touches, and {!patch} derives the next store
    from the previous one in time proportional to that change. *)

type level = [ `Full | `Id_only | `Plain ]

include Xmark_xquery.Store_sig.S with type node = Xmark_xml.Dom.node

val create : level:level -> Xmark_xml.Dom.node -> t
(** Load a parsed document, keying it with {!Xmark_xml.Dom.index} if it
    has no keys yet; index construction cost is part of bulkload, as in
    Table 1.  The document may be any version an {!Updates} session
    built: children that still point at an older version of their
    parent seed the parent map. *)

type change = {
  key : int;  (** the order key the change is about *)
  before : Xmark_xml.Dom.node option;  (** the keyed node in the store patched; [None]: absent *)
  after : Xmark_xml.Dom.node option;  (** the keyed node in the new tree; [None]: removed *)
  copied : bool;
      (** [after] path-copies an earlier version: children it shares
          with that version still name the old node as their parent *)
}
(** One key's net change between two versions of the document. *)

val patch : t -> root:Xmark_xml.Dom.node -> change list -> t
(** [patch t ~root changes] is the store of [root], a version of
    [t]'s document that differs from it exactly at the keys listed
    (at most one change per key).  It patches the ID index, the tag
    extents, the parent map, [size_bytes] and [node_count] in time
    proportional to the changes and the edited extents' prefixes, keeps
    the keyword indexes of untouched tags, and leaves [t] untouched:
    both stores stay queryable.  {!parent} resolves a shared child's
    stale parent pointer through the map from key to current node. *)

val of_string : level:level -> string -> t
(** Parse and load. *)

val level : t -> level

val dom_root : t -> Xmark_xml.Dom.node
