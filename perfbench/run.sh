#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through:
#   bash perfbench/run.sh --workload spanner-dc --seed 1 --seconds 25 --trace 0
# Build output goes to .bench_build/ (or $DUNE_BUILD_DIR) and stderr, so
# the benchmark's result stays the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${DUNE_BUILD_DIR:-.bench_build}"
dune build --root . --build-dir "$build_dir" --cache=disabled --display=quiet \
  ./perfbench/main.exe 1>&2
exec "./$build_dir/default/perfbench/main.exe" "$@"
