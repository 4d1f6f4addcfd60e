#!/usr/bin/env bash
# Builds the benchmark driver into <checkout>/.bench_build and runs it from
# the checkout root. Everything the build writes (binary, Go build cache)
# stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$here" -o "$build/edgepc-benchmark" .
cd "$root"
exec "$build/edgepc-benchmark" "$@"
