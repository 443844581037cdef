(** Multi-document collections — Section 5's split-document work-around.

    When the benchmark document is too large for one file, xmlgen's split
    mode writes n entities per file, each under a copy of the top-level
    skeleton.  The paper stipulates that "the semantics of the queries ...
    should not differ no matter whether they are executed against a single
    document or a collection of documents" — the one-document semantics
    are normative.

    This module restores those semantics: it merges the per-file section
    contents (regions by region, categories, catgraph, people,
    open_auctions, closed_auctions) back into a single logical document,
    which then loads into any backend.  The round-trip invariant
    — split, merge, query ≡ query the original — is asserted in the test
    suite. *)

val merge : Xmark_xml.Dom.node list -> Xmark_xml.Dom.node
(** Merge the roots of split files (in file order) into one [site]
    document.  A one-root collection is returned as-is (indexed, no
    copy): merging is the identity on an unsplit document.
    @raise Invalid_argument on an empty collection or a root that is
    not a [site] element. *)

val load_files : string list -> Xmark_xml.Dom.node
(** Parse and merge split files. *)
