#!/usr/bin/env bash
# Builds the benchmark driver and bin/spp.exe from source, then runs the
# driver with the given arguments (see README.md in this directory).
# Run it from the root of the repository. Build output goes to stderr so
# the last line of stdout stays the driver's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/spp_bench.exe ./bin/spp.exe >&2
exec ./_build/default/bench/e2e/spp_bench.exe "$@"
