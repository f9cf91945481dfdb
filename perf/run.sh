#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout, then runs it:
#
#   bash perf/run.sh --workload grant --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of standard output is the
# result line. A checkout without the library sources fails to build and
# exits non-zero without a result.
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the checkout; build only in _build.
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet ./perf/perf.exe 1>&2
exec ./_build/default/perf/perf.exe "$@"
