#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --ref-nominal-ms 4 --workload paper --seed 1 --seconds 15 --trace 0
#
# Every build artefact (compiler cache, binary, span dumps) stays under
# .bench_build/ in the current directory. Without the repository's own
# go.mod next to perfbench/ the build fails and nothing is printed.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -trimpath -o "$build/perfbench" .
exec "$build/perfbench" "$@"
