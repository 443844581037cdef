(** Provenance headers for benchmark artifacts.

    [BENCH_*.json] files and [--stats-json] dumps are meant to be diffed
    across builds; the provenance object records the scale factor, job
    count, repetition count and git commit that produced one, so the file
    is self-describing. *)

val commit : unit -> string
(** Short git commit hash of the working tree.  [XMARK_COMMIT]
    overrides; "unknown" when neither the variable nor a git checkout is
    available.  Cached after the first call. *)

val json : factor:float -> jobs:int -> runs:int -> unit -> string
(** The provenance JSON object,
    [{"factor": f, "jobs": j, "runs": n, "commit": "..."}]. *)
