#!/usr/bin/env bash
# Builds the benchmark and the serving binaries from the checkout it is
# run in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload deep-flat --seed 1 --seconds 15 --trace 0
#
# Everything it writes, the Go build cache included, stays under
# .bench_build in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

# Build output goes to stderr: the last line on stdout is the result.
go build -o "$out/flatdd-serve" ./cmd/flatdd-serve >&2
go build -o "$out/flatdd-coord" ./cmd/flatdd-coord >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -bin "$out" "$@"
