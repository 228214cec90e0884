#!/usr/bin/env bash
# Builds confperf and confportal from the source tree into .bench_build
# and runs confperf with the given arguments. Run it from the repository
# root, e.g.:
#
#   bash cmd/confperf/run.sh --workload corpus-strict --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay under .bench_build too, so
# a run reads and writes nothing outside the checkout but the toolchain.
set -euo pipefail

out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache"
export GOTMPDIR="$PWD/$out/tmp"
export GOMODCACHE="$PWD/$out/gomodcache"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd cmd/confperf && go build -o "../../$out/confperf" .)
go build -o "$out/confportal" ./cmd/confportal
exec "$out/confperf" -work-dir "$out" -portal-bin "$out/confportal" "$@"
