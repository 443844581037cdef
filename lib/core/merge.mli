(** Per-query merge plans for scatter-gather execution over K shards.

    The auction document is partitioned into contiguous entity slices
    (see {!Xmark_shard.Partitioner}); every shard holds the full site
    skeleton plus its slice of each entity sequence, so a shard's answer
    to any section-scoped query is the global answer restricted to that
    slice, in document order.  This module knows, per benchmark query,
    which requests to fan out ({!ops}) and how to recombine the partial
    answers into the byte-identical single-store canonical form
    ({!gather}):

    - {b concat} (Q1-Q4, Q13-Q18): per-item results scoped to one entity
      sequence; concatenating per-shard canonical items in shard order
      is document order.
    - {b sum} (Q5-Q7): each shard returns one number; re-aggregate and
      re-render with the evaluator's exact numeric formatting.
    - {b component sum} (Q20): per-shard [<result>] trees are summed
      field by field.
    - {b ordered merge} (Q19): each shard sorts its slice; a stable
      k-way merge (ties to the earlier shard) equals the global stable
      sort.
    - {b join} (Q8-Q12): the query correlates entity sequences that live
      on different shards (persons vs closed auctions vs europe items vs
      open-auction initials).  Each shard instead answers small
      [Collect] side-queries — broadcast relations of (id, name, key)
      carriers — and the gather step re-runs the join logic over the
      union, mirroring the evaluator's comparison semantics exactly. *)

type op =
  | Run of int  (** run benchmark query [n] on the shard's slice *)
  | Collect of string
      (** run this side-query text on the shard and return its items —
          the broadcast side-channel for cross-shard joins *)

val ops : int -> op list
(** The requests to fan out to every shard for benchmark query [q].
    [[Run q]] for all classes except the join queries Q8-Q12, which
    fan out [Collect] side-queries instead.
    @raise Invalid_argument for numbers outside 1-20. *)

val class_name : int -> string
(** Merge-class label for query [q]: ["concat"], ["sum"], ["sum-parts"],
    ["ordered-merge"] or ["join"] — for explain output and docs. *)

val gather : int -> string list list list -> int * string
(** [gather q parts] merges partial answers into the global one.
    [parts] is indexed [op, shard, item] — for each element of [ops q]
    (outer, in order), for each shard (in shard order), the per-item
    canonical strings of that shard's answer ({!Xmark_xml.Canonical.of_node}
    per result item).  Returns the global result as (item count,
    canonical form); the canonical form is byte-identical to
    {!Runner.canonical} of the single-store outcome.
    @raise Invalid_argument when [parts] does not match [ops q]'s
    shape. *)
