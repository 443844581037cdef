(** Cross-system result verification.

    Section 1 presents result verification as a first-class use of the
    benchmark: "the benchmark document and the queries can aid in the
    verification of query processors", while warning that deciding output
    equivalence is hard (attribute order, whitespace, physical
    representation).  This module runs the same queries on several systems
    and compares their canonical forms ({!Xmark_xml.Canonical}) with one
    reference answer per query: System D's, or the first system's when D
    is not among those compared.  Every agreement check in the project —
    [xmark_verify], Table 3's [agree] column, the query and shard test
    suites — goes through {!diverge}. *)

type divergence = {
  position : int;  (** first differing byte in the canonical forms *)
  reference_excerpt : string;
  candidate_excerpt : string;
}

val diverge : reference:string -> string -> divergence option
(** [diverge ~reference candidate] is [None] when the two canonical
    strings are equal, otherwise the first differing byte (the shorter
    length when one is a prefix of the other) with an excerpt of each
    around it. *)

val first_divergence : (Runner.system * string) list -> (Runner.system * divergence) option
(** The first system whose canonical answer diverges from the
    reference system's (D if listed, else the first). *)

type report = {
  query : int;
  agreed : bool;
  items : (Runner.system * int) list;  (** result cardinality per system *)
  digests : (Runner.system * string) list;  (** md5 of canonical form *)
  divergence : (Runner.system * divergence) option;
      (** the first system that differs from the reference *)
}

val compare_systems :
  ?queries:int list -> ?systems:Runner.system list -> string -> report list
(** [compare_systems doc] runs the benchmark queries (all twenty by
    default) on the given systems (all seven by default) over the given
    serialized document and compares each canonical result with the
    reference system's. *)

val pp_report : Format.formatter -> report -> unit

val all_agree : report list -> bool
