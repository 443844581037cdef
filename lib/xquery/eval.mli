(** Query evaluator, parameterized by a storage backend.

    [Make (S)] yields an interpreter whose value model follows the XQuery
    draft the paper uses: sequences of items, where an item is a stored
    node, a constructed node, an attribute node, or an atomic (double,
    string, boolean).  All character data is untyped and cast at runtime,
    matching the experimental setup of Section 7 ("all character data ...
    were stored as strings and cast at runtime to richer data types
    whenever necessary").

    The evaluator exploits whatever accelerators the backend offers (ID
    index, tag extents, subtree intervals) and falls back to navigation
    otherwise, so architectural differences between backends surface as
    performance differences, not result differences. *)

exception Runtime_error of string
(** A dynamic error (e.g. a path step applied to an atomic, or
    [exactly-one] of an empty sequence).  One exception for every
    backend, so a caller can match it without naming an instance. *)

module Make (S : Store_sig.S) : sig
  type attr = {
    aowner_order : int;
    aowner : Xmark_xml.Dom.node option;
        (** the constructed element carrying it; [None] when stored *)
    aname : string;
    avalue : string;
  }

  type item =
    | D  (** the document node above the document element *)
    | N of S.node  (** stored node *)
    | C of Xmark_xml.Dom.node  (** constructed node *)
    | A of attr  (** attribute node *)
    | Num of float
    | Str of string
    | Bool of bool

  type value = item list

  exception Runtime_error of string
  (** The same exception as {!Xmark_xquery.Eval.Runtime_error}. *)

  type compiled

  val compile : ?optimize:bool -> S.t -> Ast.query -> compiled
  (** Static preparation: binds user functions and resolves every element
      name in the query against the store's metadata (the catalog /
      meta-data access the paper's Table 2 measures as part of
      compilation).

      On every backend, FLWOR bodies of the shape
      [for $v in SRC where KEY($v) = PROBE return ...] execute as hash
      joins: the table over [SRC] is built once per compiled query and
      probed per outer tuple, instead of a nested loop.  The rewrite is
      semantics preserving: it only fires when [SRC] reads no variable
      and [KEY] none but [$v], when neither reads the context item,
      position or size (a relative [SRC] differs per context item), and
      when every join key atomizes to an untyped string, where the
      general [=] means string equality.  A [where] clause of any other
      shape (for example [boolean(KEY = PROBE)]) keeps the nested loop.

      Every other FLWOR runs as a nested loop that recomputes nothing
      invariant: a for source that reads no variable is evaluated once
      per {!run}; each [and] conjunct of where is tested right after the
      clause binding the last variable it reads; and a subexpression of
      where, order by or return that reads none of the FLWOR's variables
      is evaluated at most once per evaluation of the FLWOR, on first
      use.  None of this touches an expression that reads the focus,
      constructs a node or calls a user function (whose body reads its
      caller's variables).

      A FLWOR's last [let $v := E] whose [$v] is absent from where and
      order by and occurs once in return, reached only through
      constructor content, sequence members and if branches, is
      replaced by [E] at that occurrence.  A constructor attaches the
      roots built by such content (or by any constructor, sequence, if
      or FLWOR of constructors) instead of copying them; everything else
      it puts into content is copied, counted by the
      [constructed_nodes_copied] statistic.

      With [optimize] (default false), the theta joins get System D's
      hand-optimized plan ("For Systems D through F we had to experiment
      with several hand-optimized execution plans"): a [let] bound to a
      FLWOR and used only under [count] is inlined, and
      [count(for $v in SRC where KEY($v) op PROBE return $v)] with a
      numeric inequality [op] is answered by binary search over sorted
      keys instead of a nested loop. *)

  val explain_vec : compiled -> (string * string list) list
  (** The vectorized physical plans chosen for this query's absolute
      paths: [(rendered path, one line per step with operator, cost-model
      inputs and cardinality estimates)].  Empty when the backend has no
      id-algebra view ({!Store_sig.S.vec} = [None]) or no path qualified. *)

  val run : compiled -> value
  (** Execute.  @raise Runtime_error on dynamic errors (e.g. a path step
      applied to an atomic). *)

  val eval_string : ?optimize:bool -> S.t -> string -> value
  (** Parse, compile and run a query given as text. *)

  val string_of_item : S.t -> item -> string
  (** Atomized string form of one item. *)

  val result_to_dom : S.t -> value -> Xmark_xml.Dom.node list
  (** Materialize a result for serialization or cross-backend comparison:
      stored nodes and constructed nodes inside another tree are copied
      out, parentless constructed nodes are returned as they are, and
      atomics become text nodes. *)
end
