#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments. Every build artifact, cache and temporary file stays
# under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload train-xgb --seed 1 --seconds 16 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
