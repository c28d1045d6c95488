#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#   bash perfbench/run.sh --workload kd-cache --seed 1 --seconds 10 --trace 0
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
