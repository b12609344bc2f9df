#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the repository:
#
#   bash perfbench/run.sh --workload paper-pingpong --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, the Go build cache, its
# temporary files and the go command's own configuration and telemetry
# counters) stays in .bench_build at the root; results are written to
# .bench_out.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/perfbench" -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
