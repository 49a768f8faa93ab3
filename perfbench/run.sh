#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload window-sweep --seed 1 --seconds 36 --trace 0
#   bash perfbench/run.sh compare base.txt head.txt
#
# Build outputs and the Go caches live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing outside the checkout is read or written.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off GOFLAGS=
export BENCH_OUT="$out"

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
