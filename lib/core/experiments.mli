(** Reproduction harness for every table and figure of the paper's
    Section 7, plus extension exhibits.

    Each function regenerates one exhibit: it prints a human-readable
    table (side by side with the paper's published numbers where the paper
    gives any) and returns the measured rows for programmatic use — the
    test suite checks invariants on them and {!run_all} exports them as
    CSV when [XMARK_CSV_DIR] is set.

    Absolute values are not comparable with the paper's (different
    hardware and scale); the *shape* is what EXPERIMENTS.md compares. *)

val default_factor : float
(** 0.01, overridable via the [XMARK_FACTOR] environment variable. *)

val document : float -> string
(** Generate (and cache) the benchmark document at a factor. *)

(* --- Table 1: database sizes and bulkload times -------------------------- *)

type table1_row = {
  t1_system : Runner.system;
  t1_bytes : int;
  t1_load_ms : float;
  t1_nodes : int;
}

val table1 : ?factor:float -> unit -> table1_row list

(* --- Table 2: compilation vs execution (Q1/Q2 on A-C) -------------------- *)

type table2_row = {
  t2_query : int;
  t2_system : Runner.system;
  t2_compile_ms : float;
  t2_execute_ms : float;
  t2_compile_pct : float;
  t2_metadata : int;  (** catalog entries touched during compilation *)
}

val table2 : ?factor:float -> ?runs:int -> unit -> table2_row list

(* --- Table 3: query runtimes on Systems A-F ------------------------------- *)

val table3_queries : int list
(** The paper's Table 3 subset: 1,2,3,5,6,7,8,9,10,11,12,17,20. *)

type table3_row = {
  t3_query : int;
  t3_ms : (Runner.system * float) list;
  t3_agree : bool;  (** canonical results identical across systems *)
}

val table3 : ?factor:float -> ?queries:int list -> unit -> table3_row list

(* --- Figure 3: document scaling ------------------------------------------- *)

type fig3_row = { f3_factor : float; f3_bytes : int; f3_elements : int; f3_gen_ms : float }

val fig3 : ?factors:float list -> unit -> fig3_row list

(* --- Figure 4: the embedded System G --------------------------------------- *)

type fig4_row = { f4_query : int; f4_small_ms : float; f4_large_ms : float }

val fig4 : ?small:float -> ?large:float -> unit -> fig4_row list

(* --- Section 4.5: xmlgen efficiency claims ---------------------------------- *)

type genperf_row = {
  gp_factor : float;
  gp_ms : float;
  gp_mb_per_s : float;
  gp_live_mb : float;
}

val genperf : ?factors:float list -> unit -> genperf_row list

(* --- extension exhibits ------------------------------------------------------ *)

val loglog_slope : (float * float) list -> float
(** Least-squares slope of log y against log x: the growth exponent. *)

val scaling :
  ?factors:float list -> unit -> (string * (float * float) list * float) list
(** Growth exponents of representative workloads (label, measured points,
    exponent). *)

val fulltext :
  ?factor:float ->
  ?words:string list ->
  unit ->
  (string * float * float * float * float * int) list
(** Per word: (word, D cold ms, D warm ms, F scan ms, contains ms, hits). *)

(* --- execution statistics (EXPLAIN ANALYZE) ---------------------------------- *)

type stats_cell = {
  sc_system : Runner.system;
  sc_query : int;
  sc_items : int;
  sc_load_ms : float;  (** bulkload (or snapshot restore) wall time *)
  sc_compile_ms : float;
  sc_execute_ms : float;
  sc_counters : (string * int) list;  (** per-run {!Xmark_stats} counter deltas *)
  sc_load_counters : (string * int) list;
      (** counter deltas of this cell's load phase — [sax_events] for a
          parse, [pager_*]/[snapshot_bytes] for a restore *)
  sc_canonical : string;  (** canonical result, for cross-run comparison *)
}

val matrix :
  ?factor:float ->
  ?source:Runner.source ->
  ?systems:Runner.system list ->
  ?queries:int list ->
  unit ->
  stats_cell list * (string * int) list
(** Run every (system, query) cell with {!Xmark_stats} enabled, each cell on a
    freshly loaded store so cells are independent of execution order.
    [source] defaults to a generated document at [factor]; pass
    [`Snapshot path] to benchmark restored sessions instead.  Returns
    the cells in (system, query) order plus the merged counter totals of
    the whole matrix (bulkloads included).  Everything except wall-clock
    timings and GC counters is byte-identical from run to run —
    {!matrix_digest} is that determinism contract made checkable.  The
    previous enabled/disabled state of {!Xmark_stats} is restored on
    return. *)

val matrix_digest : factor:float -> stats_cell list * (string * int) list -> string
(** Deterministic text form of a {!matrix} result: per-cell result
    digests, item counts and counters, plus merged run-phase totals —
    excluding timings, environmental (GC) counters, and
    load-phase counters, so repeated and parsed/restored runs of the
    same matrix render byte-identical digests. *)

val stats_json : factor:float -> stats_cell list -> string
(** Render the cells of a {!matrix} as JSON — the machine-readable form
    of the Section 7 discussion: per-system, per-query counter objects with
    a stable key set ({!Xmark_stats.counter_inventory}), each cell carrying
    both its run counters ("counters") and its load-phase counters and
    time ("load", "load_ms") — which is where a snapshot restore's
    pager hit/miss behaviour shows up.  The leading "provenance" object
    ({!Provenance.json}) records factor, [jobs] (always 1) and the git
    commit, making the dump self-describing. *)

(* --- CSV export ---------------------------------------------------------------- *)

val fig3_to_csv : fig3_row list -> string

val table1_to_csv : table1_row list -> string

val table3_to_csv : table3_row list -> string

val fig4_to_csv : fig4_row list -> string

val write_file : string -> string -> unit

val run_all : ?factor:float -> unit -> unit
(** Every exhibit in sequence; writes CSV series when [XMARK_CSV_DIR] is
    set. *)
