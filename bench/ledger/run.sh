#!/usr/bin/env bash
# Build the ledger from source (release profile, its own build directory)
# and run one workload:
#
#   bash bench/ledger/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
#
# Run from anywhere inside a checkout of the repository. Build output goes
# to stderr, so the last line of stdout is the run's JSON summary.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
mkdir -p _build
dune build --root . --profile release --build-dir "$PWD/_build/ledger" \
  ./bench/ledger/ledger.exe 1>&2
exec ./_build/ledger/default/bench/ledger/ledger.exe "$@"
