#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through; run it from the repository root:
#
#   bash perfbench/run.sh --workload eval-bigfrag --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the Go
# build cache and temporary files, the binary, the run's scratch state and
# the trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" HOME="$out/home"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$HOME" "$TMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
