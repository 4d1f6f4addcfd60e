#!/usr/bin/env sh
# Reproduce the tests and the host wall-clock benchmarks. Writes
# test_output.txt and bench_output.txt at the repository root. The paper's
# experiment suite is `go run ./cmd/edgepc-bench` (EXPERIMENTS.md).
#
# Usage: scripts/reproduce.sh

set -eu

cd "$(dirname "$0")/.."

echo "== go test ./... =="
go test ./... 2>&1 | tee test_output.txt

echo "== benchmarks =="
go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

echo "done: test_output.txt, bench_output.txt"
