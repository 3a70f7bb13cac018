#!/usr/bin/env bash
# Builds the benchmark from source into the build directory and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload evolve|campaign|rank-queued \
#        --seed N --seconds S --trace 0|1
# Build outputs, the Go build cache, the go command's own config and
# telemetry, and traces stay under ${CARGO_TARGET_DIR:-.bench_build}
# inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOMODCACHE=$build/gomodcache
export PERFBENCH_DIR=$build

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
