#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ksoi --seed 1 --seconds 16 --trace 0
#
# The Go build cache lives in .bench_build too, so the run reads and
# writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
