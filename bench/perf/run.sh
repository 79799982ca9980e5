#!/usr/bin/env bash
# The command BENCHMARK.json names.  Run from the root of a source tree:
# builds perf.exe from that tree into .bench_build (no shared dune cache,
# so nothing is written outside the tree), then runs one time-boxed
# workload:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds T --trace 0|1
#
# The last line of standard output is the JSON result.  A tree without
# the solver's sources fails the build, and so exits non-zero.
set -euo pipefail
dune build --root . --build-dir .bench_build --cache=disabled --display=quiet \
  ./bench/perf/perf.exe >&2
exec .bench_build/default/bench/perf/perf.exe drive "$@"
