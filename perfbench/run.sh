#!/usr/bin/env bash
# Builds the host-cost benchmark from source inside the checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fio-4k-fused --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact (the Go build cache,
# temporary files, the binary) and every trace file stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
