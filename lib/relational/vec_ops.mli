(** Vectorized batch-at-a-time path execution over integer node ids.

    The scalar evaluator walks the tree one node at a time — a closure
    call and a cons per node.  This module runs the same child /
    descendant / selection steps as set algebra over pre-order node ids:
    each operator consumes a sorted array of ids and produces the next
    one, moving ids in {!Batch.block_size} blocks with a cooperative
    cancellation poll per block.

    The module is deliberately backend-agnostic: a store exposes itself
    through an {!adapter} of plain [int -> int] accessors (node ids are
    pre-order ranks, tags are {!Xmark_xml.Symbol} ids coerced to [int]),
    so the relational layer needs no dependency on the XML or store
    layers.

    {!compile} turns a logical step list into a physical {!plan} using a
    small cost model over the adapter's per-tag cardinalities (the same
    counts the backend catalogs already track); {!execute} runs it.
    {!explain} renders the choices with their cost inputs. *)

(** {1 Global toggle} *)

val set_enabled : bool -> unit
(** Enable/disable vectorized execution process-wide ([--no-vec]).
    When disabled, callers fall back to their scalar paths. *)

val is_enabled : unit -> bool

(** {1 Store adapter} *)

type adapter = {
  node_count : int;  (** total nodes (elements + text) *)
  root : int;  (** pre-order id of the document element *)
  parent : int -> int;  (** parent id; [-1] for the root *)
  tag_of : int -> int;  (** symbol id of an element, [-1] for text *)
  card : int -> int;  (** number of elements with this tag symbol *)
  extent : int -> int array;
      (** all ids with this tag, sorted ascending (may be cached) *)
  element_ids : unit -> int array;  (** all element ids, sorted ascending *)
  subtree_end : unit -> int -> int;
      (** [subtree_end () id] is the largest pre-order id inside [id]'s
          subtree (= [id] for leaves); valid because siblings occupy
          contiguous intervals under pre-order numbering *)
  probe_children : tag:int -> parent:int -> Batch.t -> unit;
      (** push [parent]'s element children with tag [tag] ([-1] = any
          element) onto the batch, in document order *)
  relation_count : int;
      (** how many physical relations a one-level untyped child probe
          must touch (1 for a single node table, #tags for a shredded
          store) — the cost-model input that makes closure walks
          expensive on System B *)
}

(** {1 Logical steps} *)

type test = Tag of int | Star

type pred = {
  sel_label : string;  (** for explain output *)
  sel_est : float;  (** estimated selectivity in [0,1] *)
  sel_fn : int -> bool;
}

type lstep =
  | Child of test
  | Descendant of test
  | Select of pred
      (** filter the current id set; must not be the first step *)

(** {1 Physical plans} *)

type phys =
  | P_root of test  (** first child step from the document node *)
  | P_whole_extent of int
      (** descendant-from-document: the tag's whole extent, no walk *)
  | P_all_elements  (** descendant-or-self::* from document *)
  | P_probe of test  (** per-parent child-index probes *)
  | P_semijoin of int
      (** scan the tag extent, hash-probe each row's parent against the
          input set (symbol-id-keyed hash join) *)
  | P_interval of test
      (** prune nested inputs, then merge-scan the extent against the
          input's subtree intervals *)
  | P_closure of test  (** level-by-level BFS via child probes *)
  | P_select of pred

type pstep = {
  phys : phys;
  note : string;  (** cost-model inputs, e.g. rejected alternative *)
  est_in : float;
  est_out : float;
}

type plan = pstep list

val compile : adapter -> lstep list -> plan
(** Pick a physical operator per logical step.  Estimates flow forward:
    the output estimate of step [k] is the input estimate of step
    [k+1].  @raise Invalid_argument if the step list is empty or starts
    with [Select]. *)

val compile_from : adapter -> est_in:float -> lstep list -> plan
(** Like {!compile} but for a plan applied to an arbitrary node set of
    estimated size [est_in] rather than the document node — the
    document-level shortcuts ([P_root], [P_whole_extent]) do not apply.
    Used for step-level vectorization where the true input cardinality
    is known at run time. *)

val execute : adapter -> poll:(unit -> unit) -> plan -> int array
(** Run the plan from the document node.  Returns the matching ids
    sorted ascending without duplicates — document order under
    pre-order numbering.  [poll] fires at least once per
    {!Batch.block_size} ids at every operator, so deadlines cut in
    mid-scan. *)

val execute_from : adapter -> poll:(unit -> unit) -> plan -> int array -> int array
(** Run a {!compile_from} plan over an explicit input id set (sorted
    ascending, duplicate-free). *)

val explain : tag_name:(int -> string) -> plan -> string list
(** One line per step: operator, cost-model inputs, estimates.
    [tag_name] renders a tag id (the adapter's symbol) for display. *)

(** {1 Helpers for adapter builders} *)

val subtree_ends : int array -> int array
(** [subtree_ends parents] computes the inclusive subtree end for every
    id from the parent array of a pre-order numbering (parents precede
    children). *)

val fold_rows_blocked :
  poll:(unit -> unit) ->
  row_count:int ->
  ('a -> int -> 'a) ->
  'a ->
  'a
(** Fold row indices [0 .. row_count-1] in blocks: batch counters and a
    [poll] per block, for table scans outside the path pipeline
    (System C's hand plans). *)
