(** Benchmark driver: bulkload any of the seven systems and execute the
    twenty queries against it, with the compile/execute split of Table 2.

    Systems A-F are the paper's "mass storage" targets (Table 1/3);
    System G is the embedded query processor of Figure 4, which holds the
    serialized document and re-parses it on every execution — the source
    of its large constant overhead. *)

type system = A | B | C | D | E | F | G

val all_systems : system list

val mass_storage : system list
(** A through F — the systems Tables 1 and 3 cover. *)

val system_name : system -> string

val system_description : system -> string

type store

type load_stats = {
  load : Timing.span;  (** bulkload time, Table 1 *)
  db_bytes : int;  (** database size, Table 1 *)
  nodes : int;
}

type source =
  [ `File of string
  | `Text of string
  | `Dom of Xmark_xml.Dom.node
  | `Snapshot of string ]
(** Where a benchmark document comes from: a file on disk, its serialized
    contents, an already-parsed DOM, or a saved session snapshot (see
    {!save_snapshot}) — restoring skips parsing and shredding
    entirely. *)

type session = {
  system : system;
  store : store;
  load_stats : load_stats;
}
(** A loaded system: the store together with how it was built. *)

val load : source:source -> system -> session
(** [load ~source sys] bulkloads [sys] from [source].  Backends that
    can't start from the given form convert first (System G always keeps
    the serialized document; relational systems parse a [`File]/[`Text]
    source).  A [`Snapshot] source restores a saved session through the
    {!Xmark_persist} pager: relational images go straight to
    {!Xmark_store.Backend_shredded.of_image} /
    {!Xmark_store.Backend_schema.of_tables} and DOM/text payloads resume
    at the matching load stage — the restored session is structurally
    identical to one loaded from the original document, and
    [load_stats.load] covers read + rebuild.
    @raise Xmark_persist.Corrupt on a damaged or truncated snapshot.
    @raise Unsupported when a relational snapshot targets the wrong
    system. *)

val save_snapshot : session -> string -> unit
(** [save_snapshot session path] writes the session's store to a
    checksummed paged snapshot file: the relational image for Systems B
    and C, the DOM for A and D-F, the serialized document for G. *)

val adopt_mainmem : Xmark_store.Backend_mainmem.t -> session
(** Wrap an already-built main-memory store as a session (system D, E or
    F by the store's level, zero load time).  This is how the write
    path publishes: the writer adopts its master's store, patched from
    the previous epoch's, as the next immutable epoch. *)

type outcome = {
  compile : Timing.span;
  execute : Timing.span;
  items : int;  (** result cardinality *)
  result : Xmark_xml.Dom.node list;
  metadata_accesses : int;  (** catalog entries touched during compilation *)
  run_stats : (string * int) list;
      (** execution-statistics deltas (counter, value) accumulated by this
          run across compile and execute — see {!Xmark_stats}; [[]] unless
          [Xmark_stats.enable] was called *)
}

exception Unsupported of string
(** A store was asked for an execution mode it does not implement
    (ad-hoc query text on System C, or a relational snapshot loaded
    into the wrong system). *)

val run : store -> int -> outcome
(** [run store q] executes benchmark query [q] (1-20).
    @raise Invalid_argument for an unknown query number. *)

val run_text : store -> string -> outcome
(** Execute an arbitrary XQuery text.
    @raise Unsupported on System C, which only executes prepared plans. *)

val try_run_text : store -> string -> (outcome, [ `Unsupported of string ]) result
(** Like {!run_text} but returns the unsupported case as a value, for
    callers (CLIs) that want a clean one-line error instead of an
    exception. *)

(** {2 Prepared plans}

    The compile/execute split as an API: prepare once, execute many
    times.  This is what the query service's plan cache stores —
    repeated queries skip parsing and path compilation, and on System C
    the prepared plan is the only execution mode there is.

    A prepared plan holds mutable per-plan caches (tag arrays, join
    tables, which warm across executions), so it must not be executed by
    two domains at once; checkout it exclusively, as
    {!Xmark_service.Plan_cache} does. *)

type prepared

val prepare : store -> int -> prepared
(** [prepare store q] compiles benchmark query [q] (1-20) — on System C,
    its prepared relational plan.
    @raise Invalid_argument for an unknown query number. *)

val prepare_text : store -> string -> prepared
(** Compile arbitrary XQuery text.
    @raise Unsupported on System C, which executes prepared plans only. *)

val plan_description : prepared -> string list
(** Physical plan for [--explain]: per vectorized path, one line per
    step with the cost-model pick and its inputs (estimated input/output
    cardinalities, probe vs semijoin vs interval-join thresholds); any
    scalar tail or full scalar fallback is labelled as such.  System C
    reports which hand plans run the blocked batch scan. *)

val execute_prepared : prepared -> outcome
(** Execute a prepared plan.  The outcome's [compile] span and
    [metadata_accesses] are the (one-time) preparation costs; [execute]
    and [run_stats] cover this execution. *)

val run_session : session -> int -> outcome
(** [run_session s q] executes benchmark query [q] (1-20) on the
    session's store.
    @raise Invalid_argument for an unknown query number. *)

val run_text_session : session -> string -> outcome
(** Execute arbitrary XQuery text on the session's store.
    @raise Unsupported on System C, which executes prepared plans only. *)

val canonical : outcome -> string
(** Canonical result form for cross-system comparison. *)
