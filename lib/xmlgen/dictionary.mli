(** Vocabulary and name pools for the document generator.

    The original xmlgen draws its prose from the 17,000 most frequent
    non-stopword Shakespeare words and scrambles Internet phone directories
    for person names (paper, Section 4.3).  Neither corpus ships in this
    container, so this module synthesizes deterministic stand-ins with the
    same statistical profile: a 17,000-entry vocabulary whose rank
    frequencies follow a Zipf law, seeded with common English words at the
    frequent ranks (including "gold", which query Q14 searches for), plus
    pools for names, mail hosts, cities, streets and provinces.  The pools
    depend only on a fixed internal seed, never on the document seed, so
    every generated document shares one vocabulary — exactly like the
    original tool. *)

type t

val create : unit -> t
(** Build the pools.  Deterministic; costs a few milliseconds. *)

val vocabulary_size : t -> int
(** 17,000. *)

val word : t -> int -> string
(** [word d rank]; rank 0 is the most frequent word. *)

val sample_word : t -> Xmark_prng.Prng.t -> string
(** Draw a word with Zipf-distributed rank. *)

val gold_rank : t -> int
(** Rank of the word "gold" — pinned so Q14 selectivity is stable. *)

val sample_sentence : t -> Xmark_prng.Prng.t -> int -> string
(** [sample_sentence d g n] is [n] Zipf-sampled words joined by single
    spaces (no trailing space). *)

val first_name : t -> Xmark_prng.Prng.t -> string
val last_name : t -> Xmark_prng.Prng.t -> string
val mail_host : t -> Xmark_prng.Prng.t -> string
val city : t -> Xmark_prng.Prng.t -> string
val street_word : t -> Xmark_prng.Prng.t -> string
val province : t -> Xmark_prng.Prng.t -> string

val country : t -> Xmark_prng.Prng.t -> string
(** Weighted draw: "United States" dominates, as in the original tool. *)
