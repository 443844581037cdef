(** Shared command-line vocabulary for the xmark executables.

    Every binary (xmlgen, xquery_run, xmark_bench, xmark_verify) takes
    its common flags from here so they are spelled — and documented —
    identically: [--factor]/[--scale], [--seed], [--stats-json],
    [--explain], [--doc], [--snapshot]/[--save-snapshot],
    [--system]/[--systems], [--queries]. *)

val read_file : string -> string

(* --- parsers -------------------------------------------------------------- *)

val system_of_string : string -> (Runner.system, [ `Msg of string ]) result

val parse_systems : string -> Runner.system list
(** ["B,G"] -> [[Runner.B; Runner.G]].
    @raise Failure on an unknown system letter. *)

val parse_queries : string -> int list
(** ["1,8,20"] or ["1-5,8"] -> query numbers.
    @raise Failure on a malformed entry. *)

(* --- terms ---------------------------------------------------------------- *)

val factor : ?default:float -> unit -> float Cmdliner.Term.t
(** [-f] / [--factor] / [--scale]. *)

val seed : int option Cmdliner.Term.t
(** [--seed]. *)

val stats_json : string option Cmdliner.Term.t
(** [--stats-json FILE]. *)

val explain : bool Cmdliner.Term.t
(** [--explain]. *)

val no_vec : bool Cmdliner.Term.t
(** [--no-vec]; disable vectorized batch-at-a-time execution. *)

val doc_file : string option Cmdliner.Term.t
(** [--doc FILE]. *)

val snapshot : string option Cmdliner.Term.t
(** [--snapshot FILE]; restore the session from a saved snapshot. *)

val save_snapshot : string option Cmdliner.Term.t
(** [--save-snapshot FILE]; write the loaded session's store to disk. *)

val system : ?default:Runner.system -> unit -> Runner.system Cmdliner.Term.t
(** [-s] / [--system], a single backend. *)

val systems : Runner.system list Cmdliner.Term.t
(** [--systems LIST], default all seven. *)

val queries : int list Cmdliner.Term.t
(** [--queries LIST], default 1-20. *)

(* --- query-service terms (xmark_serve) ------------------------------------ *)

val clients : int list Cmdliner.Term.t
(** [--clients LIST]; client counts to sweep, default [1]. *)

val duration_requests : int Cmdliner.Term.t
(** [--duration-requests N]; total requests per run, default 200. *)

val mix : string Cmdliner.Term.t
(** [--mix MIX]; "interactive" (default), "uniform" or explicit
    weights — parsed by {!Xmark_service.Workload.mix_of_string}. *)

val deadline_ms : float Cmdliner.Term.t
(** [--deadline-ms MS]; 0 (default) disables the per-request deadline. *)

val max_inflight : int Cmdliner.Term.t
(** [--max-inflight N]; 0 (default) means one slot per client. *)

val queue_depth : int Cmdliner.Term.t
(** [--queue-depth N]; bounded admission queue, default 64. *)

val plan_cache : int Cmdliner.Term.t
(** [--plan-cache N]; prepared-plan LRU capacity, default 64. *)

(* --- wire terms (xmark_serve) --------------------------------------------- *)

val listen : string option Cmdliner.Term.t
(** [--listen ADDR]; serve the store over the wire protocol (blocking). *)

val connect : string option Cmdliner.Term.t
(** [--connect ADDR]; run the workload sweep as a socket client. *)

val fleet : int Cmdliner.Term.t
(** [--fleet N]; fork N snapshot-restoring workers behind a front door,
    0 (default) disables fleet mode; a negative N is a usage error. *)

val shards : int Cmdliner.Term.t
(** [--shards K]; partition into K shards and run the queries
    scatter-gather over a per-shard worker fleet, 0 (default) disables
    sharding; a negative K is a usage error. *)

(* --- wiring --------------------------------------------------------------- *)

val install_no_vec : bool -> unit
(** Apply [--no-vec]: when true, switch
    {!Xmark_relational.Vec_ops.set_enabled} off for the whole process. *)
