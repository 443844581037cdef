(** Hand-prepared relational execution plans for System C.

    The paper's System C runs queries "translated into a proprietary
    language" over its DTD-derived schema; these are those translations
    for all twenty benchmark queries, executed through the mini relational
    engine's operators and indexes.  Plan choices mirror the paper's
    observations: ordered access (Q2/Q3) reads the bidder relation's
    position column; Q5 range-scans the ordered price index; Q9
    deliberately uses the "no good execution plan" quadratic scan join the
    paper reports; Q11/Q12 keep the sub-optimal nested-loop theta join.

    Every plan produces the same canonical result as the XQuery evaluation
    of the official query on the navigational backends (asserted by the
    cross-system tests). *)

type plan

val compile : Xmark_store.Backend_schema.t -> int -> plan
(** [compile store n] prepares benchmark query [n] (1-20); catalog
    lookups performed here count as the compilation-phase metadata
    accesses of Table 2.
    @raise Invalid_argument for an unknown query number. *)

val execute : plan -> Xmark_xml.Dom.node list
(** Run the plan; the result is materialized in the comparable DOM form.
    Full-table scans (Q13-Q18, Q20) go through
    {!Xmark_store.Backend_schema.scan_blocks}, so they run block-at-a-time
    with batch counters and per-block cancellation polls when vectorized
    execution is enabled. *)

val describe : plan -> string list
(** Physical description of the plan, one line per operator group:
    which queries run the blocked batch scan (and at what block size)
    versus the scalar hand plan. *)
