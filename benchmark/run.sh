#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument is passed on.
#
#   bash benchmark/run.sh --workload pipe-cfs --seed 1 --seconds 20 --trace 0
#
# Run from anywhere: it changes to the repository root first.  The build
# skips dune's shared cache, so it writes only inside the tree, and its
# output goes to stderr, so the benchmark's last stdout line stays its
# JSON summary.  A tree without the simulator's sources fails to build,
# and the script exits non-zero without printing a result.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
