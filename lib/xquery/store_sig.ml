(** Interface between the query evaluator and a storage backend.

    Every system under test (Systems A through G of the paper's Section 7)
    implements this signature; the evaluator is a functor over it, so the
    same query code runs against every physical mapping and the measured
    differences are attributable to the mapping — which is the point of the
    benchmark.

    Navigation operations are mandatory.  The [option]-returning
    accelerators model the architecture-specific access paths the paper
    discusses: an ID index (Q1's "table scan or index lookup"), tag/path
    extents backed by a structural summary ("System D keeps a detailed
    structural summary of the database and can exploit it to optimize
    traversal-intensive queries"), and subtree intervals that let
    descendant steps avoid full traversals.  A backend returns [None] when
    it has no such access path, and the evaluator falls back to plain
    navigation.

    Observability convention: implementations record what they did into
    {!Xmark_stats} — [nodes_scanned] for every node materialized or
    touched by navigation, [index_lookups]/[index_hits] for each probe of
    an ID / extent / keyword index, and [summary_consultations] when a
    structural summary or optimizer statistic answers a question without
    touching data.  Counters are observation-only: enabling them must
    never change results (see [test_stats_differential]). *)

module type S = sig
  type t
  (** A loaded database instance. *)

  type node
  (** Handle to a stored element or text node. *)

  val root : t -> node
  (** The document element. *)

  val kind : t -> node -> [ `Element | `Text ]

  val name : t -> node -> Xmark_xml.Symbol.t
  (** Interned tag of an element; {!Xmark_xml.Symbol.empty} for text
      nodes.  Resolve with [Symbol.to_string] only at output
      boundaries — name tests stay in symbol space. *)

  val text : t -> node -> string
  (** Character data of a text node; [""] for elements. *)

  val children : t -> node -> node list
  (** Children in document order; [\[\]] for text nodes. *)

  val parent : t -> node -> node option

  val attributes : t -> node -> (string * string) list

  val attribute : t -> node -> string -> string option

  val order : t -> node -> int
  (** Document-order key: unique per node within a store and increasing
      in document order, but not necessarily dense. *)

  val string_value : t -> node -> string
  (** Concatenated descendant text. *)

  (* --- optional accelerators ------------------------------------------ *)

  val id_lookup : t -> string -> node option option
  (** [Some (Some n)]: the element whose [id] attribute is the argument;
      [Some None]: index present, no such id; [None]: no ID index. *)

  val tag_nodes : t -> Xmark_xml.Symbol.t -> node list option
  (** All elements with the given tag, in document order. *)

  val tag_count : t -> Xmark_xml.Symbol.t -> int option

  val subtree_interval : t -> node -> (int * int) option
  (** [(lo, hi)] such that node [d] is a descendant-or-self of the argument
      iff [lo <= order d < hi]. *)

  val keyword_search : t -> tag:Xmark_xml.Symbol.t -> word:string -> node list option
  (** Elements with the given tag whose string value contains [word] as a
      token — an inverted-index access path for the full-text query Q14. *)

  val vec : t -> (Xmark_relational.Vec_ops.adapter * (int -> node)) option
  (** Vectorized-execution capability: an id-algebra view of the store
      plus the decoder from adapter ids back to nodes.  Only meaningful
      for backends whose node handles are pre-order integers with
      document order equal to id order; others return [None] and the
      evaluator stays on the scalar path. *)

  (* --- statistics ------------------------------------------------------ *)

  val size_bytes : t -> int
  (** Approximate size of the loaded database (Table 1's "Size" column). *)

  val node_count : t -> int

  val description : t -> string
  (** One-line architecture description for reports. *)
end
