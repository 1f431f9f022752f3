#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload figures --seed 42 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, binary)
# stays under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$here" && go build -buildvcs=false -o "$out/hipe-bench" .)
exec "$out/hipe-bench" "$@"
