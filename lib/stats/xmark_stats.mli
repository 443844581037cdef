(** Execution-statistics layer: named monotonic counters grouped into
    scopes, and the one clock every duration and deadline reads.

    The benchmark's whole point is attributing cost to query-processing
    primitives; end-to-end timings alone cannot do that.  Every engine
    layer (SAX parser, storage backends, relational operators, the
    XQuery evaluator) increments counters here, and the harness reads
    them back per bulkload / compile / execute phase — an EXPLAIN
    ANALYZE for the paper's Section 7 narrative.

    The layer is observation-only.  When disabled (the default) every
    entry point is a single flag test, so instrumented hot paths cost
    ~nothing; instrumentation must never change query results (enforced
    by [test_stats_differential]).

    {b Domain safety.}  Every domain owns a private registry held in
    domain-local storage; only the enabled flag is shared (an atomic,
    toggled before domains are spawned).  Spawned domains accumulate
    locally and move their deltas to the joining domain with
    {!export_and_clear} / {!absorb} — so the merged totals equal a
    sequential run's. *)

(* --- the clock ------------------------------------------------------------- *)

val now_ns : unit -> int64
(** CLOCK_MONOTONIC in nanoseconds from an arbitrary per-process
    origin.  Every duration and deadline in the program is measured on
    it, so a wall-clock step cannot time a request out early or late;
    only differences of two readings are meaningful. *)

val ms_since : int64 -> float
(** [ms_since t0] is the milliseconds elapsed since the reading [t0]. *)

(* --- enabling ----------------------------------------------------------- *)

val enabled : unit -> bool

val enable : unit -> unit

val disable : unit -> unit

val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all recorded counters; the enabled flag and any active scope
    are unaffected. *)

(* --- scopes ------------------------------------------------------------- *)

val with_scope : string -> (unit -> 'a) -> 'a
(** [with_scope name f] runs [f] with counters attributed to [name];
    nested scopes join with ['/'] ("execute/join_build").  Exception
    safe.  When disabled this is just [f ()]. *)

val current_scope : unit -> string
(** The active scope path; [""] at top level. *)

(* --- counters ----------------------------------------------------------- *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to a counter in the current scope.  No-op when
    disabled. *)

val count_allocations : (unit -> 'a) -> 'a
(** [count_allocations f] runs [f] and adds the allocation the GC saw
    during it to the current scope: [gc_minor_words] (young-generation
    words, via {!Gc.minor_words} so words not yet collected count too),
    [gc_major_words] (promoted plus directly major-allocated words) and
    [gc_major_collections].  When disabled, just [f ()]. *)

val get : scope:string -> string -> int
(** Counter value within one scope (0 if never touched). *)

val total : string -> int
(** Counter value summed across all scopes. *)

(* --- snapshots (deltas around a region of interest) ---------------------- *)

type snapshot

val snapshot : unit -> snapshot

val since : snapshot -> (string * int) list
(** Per-counter totals accumulated after the snapshot was taken, sorted
    by counter name; only counters with a nonzero delta appear. *)

(* --- cross-domain transfer ------------------------------------------------ *)

type export = (string * (string * int) list) list
(** A registry dump: [(scope, [(counter, delta); ...]); ...], both
    levels sorted by name. *)

val export_and_clear : unit -> export
(** Dump and empty the calling domain's registry.  A spawned domain
    calls this before it ends so its deltas travel back with its
    result. *)

val absorb : export -> unit
(** Add a dump into the calling domain's registry, scope by scope.
    [absorb (export_and_clear ())] is the identity on totals. *)

(* --- rendering ----------------------------------------------------------- *)

val counter_inventory : string list
(** The canonical counter names every stats report carries (missing ones
    render as 0), so downstream JSON consumers see a stable schema. *)

val to_assoc : unit -> (string * (string * int) list) list
(** [(scope, [(counter, value); ...]); ...], both levels sorted. *)

val totals : unit -> (string * int) list

val pp : Format.formatter -> unit -> unit
(** Human-readable per-scope counter table. *)

val json_of_counters : (string * int) list -> string
(** A JSON object [{"counter": value, ...}]; counters from
    {!counter_inventory} are always present. *)

val to_json : unit -> string
(** Full dump: [{"scopes": {scope: {counter: value}}, "totals": {...}}]. *)
