(** Update operations — the paper's declared future work.

    Section 8: "Important parts of a complete application scenario are
    still missing: update specifications, for which a W3C standard has
    yet to be defined, are the most prominent one."  This module supplies
    the auction site's natural write operations on top of the main-memory
    backend as {e persistent versions}: an update never mutates a node an
    earlier version reaches.  It path-copies the spine from [site] down
    to the entity it touches and shares every other subtree.  Copies
    keep their originals' order keys; fresh subtrees take consecutive
    keys from the gap {!Xmark_xml.Dom.index} left after their
    predecessor.  {!store} then patches the previous store with the net
    change ({!Backend_mainmem.patch}), so an update and its publish cost
    what they change, not the size of the document.

    When a gap is too small for a fresh subtree the update {e relabels}:
    it deep-copies and fully reindexes the new version (counted by the
    [publish_relabels] statistic), and the next {!store} is a full
    build.  [publish_nodes_built] counts the nodes a publish or a
    relabel keys.

    All operations preserve the benchmark's integrity invariants: typed
    references keep resolving, identifiers stay unique, and an open
    auction's [current] price stays equal to [initial] plus the sum of its
    bid increases.

    Operations validate their inputs completely before touching the
    session: a raised [Update_error] guarantees the document is
    unchanged, which is what lets the service treat every update as
    atomic.  Stores returned earlier stay valid and unchanged. *)

type session

type fault =
  | Unknown_auction of string  (** no open auction carries this id *)
  | Unknown_person of string  (** no person carries this id *)
  | Auction_closed of string  (** the auction was already closed in this session *)
  | No_bids of string  (** close_auction on an auction without bids *)
  | Missing_section of string  (** the document lacks a required top-level section *)
  | Invalid of string  (** anything else: bad argument, malformed document *)

exception Update_error of fault

val fault_to_string : fault -> string

val open_session : ?level:Backend_mainmem.level -> Xmark_xml.Dom.node -> session
(** Take ownership of a document tree, keying it with
    {!Xmark_xml.Dom.index} if it has no keys yet.  [level] defaults to
    [`Full]. *)

val of_string : ?level:Backend_mainmem.level -> string -> session

val root : session -> Xmark_xml.Dom.node
(** The current version of the document.  Never mutated: later updates
    build new versions that share its unchanged subtrees. *)

val level : session -> Backend_mainmem.level

val store : session -> Backend_mainmem.t
(** Store of the current version: the previous store patched with the
    changes since, or a full build after opening or a relabel. *)

val pending : session -> bool
(** Whether the current version has no store yet. *)

val register_person : session -> name:string -> email:string -> string
(** Add a person; returns the fresh identifier (["person<n>"]).
    @raise Update_error if the people section is missing. *)

val place_bid :
  session -> auction:string -> person:string -> increase:float -> date:string -> time:string -> unit
(** Append a bid to an open auction and update its [current] price.
    @raise Update_error for an unknown auction or person. *)

val close_auction : session -> auction:string -> date:string -> unit
(** Move an open auction to the closed section: the highest bidder becomes
    the buyer, [current] becomes [price], bid history is dropped — the
    document's own schema for closed auctions.
    @raise Update_error for an unknown auction or one without bids. *)
