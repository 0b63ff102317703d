#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#   bash benchmark/run.sh --workload serve_hit --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and the binary under .bench_build/, stores
# and traces under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C "$here" build -o "$build/benchmark" .
exec "$build/benchmark" -dir "$here" "$@"
