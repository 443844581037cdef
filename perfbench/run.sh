#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given
# arguments (see run.ml).  Run from the root of the repository:
#
#   bash perfbench/run.sh --workload table3-d --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr so run.exe's last stdout line stays its
# JSON result.  The dune cache is disabled so the build writes nothing
# outside the working tree.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled --display=quiet ./perfbench/run.exe 1>&2
exec ./_build/default/perfbench/run.exe "$@"
