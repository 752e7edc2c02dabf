#!/usr/bin/env bash
# Builds the HTAP benchmark from source into .bench_build/ and runs it with
# the given arguments. Run it from the repository root:
#
#   bash htapbench/run.sh --workload tpcc --seed 1 --seconds 10 --trace 0
#   bash htapbench/run.sh --compare .bench_out/old.json .bench_out/new.json
#
# Every file the build writes (compiler cache, module cache, telemetry,
# the binary) stays under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$root/htapbench" && go build -o "$build/htapbench" .)
exec "$build/htapbench" -root "$root" "$@"
