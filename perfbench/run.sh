#!/usr/bin/env bash
# Build and run the repository benchmark from the repository root:
#   bash perfbench/run.sh --workload sim_detailed --seed 1 --seconds 10 --trace 0
# The build log goes to stderr; the benchmark's report, ending in one
# JSON line, to stdout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a branch-vanguard checkout" >&2
  exit 2
fi
# keep dune's shared cache out of it: build only inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
