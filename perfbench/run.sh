#!/usr/bin/env bash
# Builds the benchmark into .bench_build (Go build cache included, so the
# run reads and writes only inside the checkout) and runs it with the given
# arguments, e.g.:
#
#   bash perfbench/run.sh --workload flows --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
