#!/usr/bin/env sh
# Benchmark fleet-scale serving (the 'serve_fleet' experiment): the
# deterministic million-user traffic harness (cmd/edgepc-loadgen) sweeps the
# overload grid — 1x/10x/100x offered load, Pareto arrivals, diurnal ramp,
# Zipf tenant skew — through the real serve control plane (consistent-hash
# ring, tenant QoS buckets, priority shed controller) on a virtual clock,
# and writes the full report to BENCH_serve.json at the repository root:
# latency quantiles, goodput, per-class fairness, the shed-vs-degrade
# crossover curve, and the goodput-under-stall-storm survivability sweep
# (none / retry2 recovery policies at 10% injected stalls).
# Same seed ⇒ bit-identical counts.
#
# The full run calibrates per-tier service times from the real pipeline
# first (-calibrate), so the simulated fleet serves at measured speeds; the
# measured times are recorded in the report as pinned spec inputs.
#
# Usage: scripts/bench_serve.sh [-quick]
#   -quick  CI-scale preset (2 engines, 400ms virtual window; seconds)
#
# Environment:
#   OUT  output JSON path  (default BENCH_serve.json)
#   RAW  raw count lines   (default BENCH_serve.txt)

set -eu

cd "$(dirname "$0")/.."

RAW="${RAW:-BENCH_serve.txt}"
OUT="${OUT:-BENCH_serve.json}"

if [ "${1:-}" = "-quick" ]; then
	go run ./cmd/edgepc-loadgen -quick -out "$OUT" >"$RAW"
else
	go run ./cmd/edgepc-loadgen -calibrate -workload W1 -config S+N \
		-mults 1,10,100 -crossover 1,2,5,10,20,50,100 -out "$OUT" >"$RAW"
fi

echo "wrote $OUT; count lines:"
grep -E '^(scenario|survivability) mult=' "$RAW"
