(** System B: a relational store with a highly fragmenting mapping — one
    relation per element tag and per (tag, attribute) pair, in the spirit
    of Florescu/Kossmann's binary mapping (paper reference [14]).

    "System B on the other hand uses a highly fragmenting mapping.
    Consequently, [it] has to access [more] metadata to compile a query"
    (Table 2 discussion).  The catalog registers ~80 relations plus their
    indexes; a child-navigation step probes the parent index of every
    relation in the catalog, and subtree reconstruction touches them all
    repeatedly — expensive compilation and reconstruction, reasonable
    lookup times once the right relations are found. *)

include Xmark_xquery.Store_sig.S with type node = int

val load_string : string -> t

val load_dom : Xmark_xml.Dom.node -> t

val catalog : t -> Xmark_relational.Catalog.t

val to_image : t -> Xmark_persist.Snapshot.b_image
(** The store's relational image for snapshotting: everything a restore
    cannot rebuild without re-parsing (the tag, text and attribute
    relations plus both first-encounter orders).  Indexes and the node
    directory are derived data and stay out of the image. *)

val of_image : Xmark_persist.Snapshot.b_image -> t
(** Rebuild a store from a restored image — indexes, catalog and node
    directory are reconstructed, in the same registration orders as a
    fresh load, so queries behave identically.
    @raise Xmark_persist.Corrupt on an internally inconsistent image. *)
