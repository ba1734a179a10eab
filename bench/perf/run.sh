#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it, passing every
# argument through to perf.exe:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build goes to _build/ only: dune's
# shared cache and user configuration are left out, and a directory
# without the repository's dune-project fails to build.
set -euo pipefail
dune build --root . --no-config --cache=disabled --require-dune-project-file \
  --display quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
