(** Deterministic property testing and mutation fuzzing for the XMark
    stack.

    Everything here is a pure function of an explicit seed: {!Gen}
    builds well-formed documents over the benchmark vocabulary,
    {!Mutate} turns any input hostile, {!Property} runs seeded
    campaigns with automatic shrinking to a minimal reproducer, and the
    [Fuzz_*] modules apply that machinery to the trust boundaries
    — the {!Xmark_xml.Sax} parser, the {!Xmark_persist.Snapshot}
    reader, the {!Xmark_service.Server}, the {!Xmark_wire.Frame}
    decoder, the {!Xmark_wal.Log} recovery scan, and the
    vectorized-versus-scalar execution equivalence.  {!Corpus} keeps
    found and hand-constructed reproducers on disk and replays them as
    regression tests. *)

module Gen = Gen
module Mutate = Mutate
module Shrink = Shrink
module Property = Property
module Fuzz_sax = Fuzz_sax
module Fuzz_snapshot = Fuzz_snapshot
module Fuzz_service = Fuzz_service
module Fuzz_wire = Fuzz_wire
module Fuzz_wal = Fuzz_wal
module Fuzz_vec = Fuzz_vec
module Corpus = Corpus
