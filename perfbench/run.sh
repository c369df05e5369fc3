#!/usr/bin/env bash
# Build the benchmark and the vdram CLI from source, then run one
# workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The last line of stdout is the result object; see perfbench/NOTES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/bench.exe ./bin/vdram.exe 1>&2
PERFBENCH_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)"
export PERFBENCH_COMMIT
exec ./_build/default/perfbench/bench.exe "$@"
