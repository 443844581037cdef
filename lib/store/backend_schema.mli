(** System C: a relational store whose schema is derived from the DTD by
    inlining, in the spirit of Shanmugasundaram et al. (paper reference
    [23]): "System C reads in a DTD and lets the user generate an optimized
    database schema ... [and] uses a data mapping ... that results in
    comparatively simple and efficient execution plans and thus outperforms
    all other systems for Q2 and Q3".

    Entities become relations with inlined single-valued children (person,
    item, open_auction, closed_auction, category); set-valued children
    become side relations (bidder — with an explicit position column, which
    is exactly why Q2/Q3's ordered access is cheap here — interest,
    incategory, watch, edge).  Document-centric subtrees (description,
    annotation) are stored as serialized XML plus their text value, so
    reconstruction (Q13) and containment (Q14) are single-column reads.

    This backend executes the benchmark through prepared relational plans
    (see [Xmark_core.Plans_c]); like the original System C, whose queries
    were translated to a proprietary language by hand, it does not offer
    generic XQuery navigation. *)

type t

val load_dom : Xmark_xml.Dom.node -> t

val load_string : string -> t

val catalog : t -> Xmark_relational.Catalog.t

val table : t -> string -> Xmark_relational.Table.t
(** Catalog lookup (counted as metadata access).
    @raise Not_found for an unknown relation. *)

val index : t -> table:string -> column:string -> Xmark_relational.Index.t
(** @raise Not_found when no such index exists. *)

val scan_blocks :
  Xmark_relational.Table.t ->
  ('a -> int -> Xmark_relational.Table.row -> 'a) ->
  'a ->
  'a
(** Full-table scan in {!Xmark_relational.Batch.block_size}-row blocks:
    batch counters per block and a {!Xmark_xquery.Cancel.poll} per block
    boundary, so service deadlines fire mid-scan in the hand plans too.
    Falls back to a plain [Table.fold] when vectorized execution is
    disabled ([--no-vec]). *)

val ordered_index :
  t -> table:string -> column:string -> Xmark_relational.Btree.t option
(** Numeric B+-tree indexes for range predicates (closed_auction.price,
    person.income); keys are the runtime-cast numeric column values. *)

val snapshot_tables : t -> Xmark_relational.Table.t list
(** The ten relations in catalog registration order — the snapshot
    image; indexes and B+-trees are derived data and stay out of it. *)

val of_tables : Xmark_relational.Table.t list -> t
(** Rebuild a store from restored relations: seal, register, and build
    the hash indexes and B+-trees exactly as a fresh load would.
    @raise Xmark_persist.Corrupt unless the relations are precisely the
    schema's ten, in registration order. *)

val size_bytes : t -> int

val row_total : t -> int

val description : t -> string
