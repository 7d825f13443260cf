#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits
# in, then runs it from the checkout root with the given arguments:
#
#   bash e2ebench/run.sh --workload q17-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the binary)
# and the spans of traced runs stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" "$@"
