#!/usr/bin/env bash
# Builds cmd/k23bench against the repository it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/k23bench/run.sh --workload micro --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the current directory. Without the simulator's
# sources next to the benchmark the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/k23bench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/cmd/k23bench" && go build -o "$out/k23bench" .)
exec "$out/k23bench" "$@"
