#!/usr/bin/env sh
# Tier-1+ gate: everything the repo promises must stay green, plus formatting
# and static invariants, the race-detector pass over the packages with
# goroutine-parallel kernels, and a one-iteration benchmark smoke so the
# hot-path benchmarks can never rot.
#
# Usage: scripts/ci.sh

set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== other platforms (pure-Go fallback builds; no fused multiply-add in the assembly) =="
# blocked, the backward products, the train-mode argmax pool, nn.BatchNorm's
# sweeps forward and backward, Linear's gradient adds, model's featKNN,
# sample.BucketFPS's refresh, sample.ApplyPlan, the spatial 3-NN join's
# best-three selection and spatial.NearestK (the Morton window's and the
# scan levels' nearest-k) have amd64 assembly behind *_amd64 files; every
# other GOARCH must build and vet from the stubs beside them. The vet line
# names every package with an _amd64.s file. A VFMADD would
# round once where the Go kernels round twice and move every golden fixture;
# the grep covers every *.s file in the tree.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor/ ./internal/nn/ ./internal/model/ ./internal/sample/ ./internal/spatial/
if grep -rniE 'vfn?m(add|sub)' --include='*.s' .; then
	echo "assembly uses a fused multiply-add; the vector kernels must round like the Go ones" >&2
	exit 1
fi

echo "== no compiler-fused multiply-add on arm64 (./internal/... ./cmd/...) =="
# The Go spec lets a compiler fuse x*y + z, and the arm64 one does. Every
# product that feeds an add or a subtract is rounded with an explicit
# float64(...) or float32(...) conversion, which the spec says prevents that.
# One FMADD and the spatial index's pruning bounds, the FPS picks, the logits,
# the gradients and the golden fixtures would differ between amd64 and arm64;
# so would the Morton order every S+N logit is computed in, the serving
# policies and simulator draws behind the count lines two same-seed runs must
# print byte-equal, the edgesim prices and the experiments' tables. A warm
# build cache replays the compiler output, so no -a is needed.
fused=$(GOARCH=arm64 go build -gcflags=-S ./internal/... ./cmd/... 2>&1 |
	grep -E '[[:space:]]F(N)?M(ADD|SUB)[DS][[:space:]]' || true)
if [ -n "$fused" ]; then
	printf '%s\n' "$fused" >&2
	echo "the arm64 compiler fused a multiply-add; round the product with an explicit conversion" >&2
	exit 1
fi

echo "== edgepc-lint ./... (static invariants; see DESIGN.md §7) =="
# The analyzer set is pinned by name in internal/lint's TestSuiteMetadata.
go run ./cmd/edgepc-lint ./...

echo "== escape gate (hotpath heap escapes vs baseline; see DESIGN.md §7) =="
scripts/escape_gate.sh

echo "== go test -race (parallel kernels + workspace hot path + serving) =="
# Every parallel.* fan-out and every go statement runs with more than one
# goroutine in a stage below (DESIGN.md §7 lists each site with its test); a
# write to a variable the goroutines share is a DATA RACE there.
# MatMulBT's fallback loop runs only on a host without AVX2.
go test -race ./internal/tensor/... ./internal/parallel/... ./internal/morton/... ./internal/spatial/... ./internal/core/... ./internal/neighbor/... ./internal/pipeline/... ./internal/model/... ./internal/serve/... ./internal/loadgen/... ./cmd/edgepc-serve/
go test -race -run 'TestParCoverRadiusMatchesSerial' ./internal/experiments/
# internal/nn's fused-epilogue table runs every shape at five core counts:
# under the race detector the full table takes minutes, and
# the -short one still crosses every fan-out threshold and every remainder of
# the vector strips. The vector-against-Go tests (TestVectorGEMM*,
# TestVectorATBT* and TestVectorPool* in tensor, TestVectorSweeps*,
# TestVectorBackward*, TestVectorLinear* and TestTrainFold* in nn,
# TestFeatKNN* and TestKNNScan* in model) run whole in both stages and in the
# GOMAXPROCS sweep below; the kernel-level ones skip with a message on a host
# without AVX2.
go test -race -short ./internal/nn/...

echo "== go test ./... =="
go test ./...

echo "== bench driver (its own module, outside ./...) =="
# bench/ imports repro/internal/... through a replace directive, so an API it
# calls can change under it without `go test ./...` noticing.
(cd bench && go vet . && go test -race .)

echo "== numerics independent of core count (golden + history + spatial + tensor + nn + parallel + model + train + core, GOMAXPROCS 1/2/4/8) =="
# Trained weights and logits are a function of the inputs and the seed, not of
# how many goroutines a kernel split into: the bit-exact golden fixtures must
# hold at every worker count (-count=1: the test cache does not key on
# GOMAXPROCS). TestGolden matches the suites at the shipped scan cut-off and
# the *IndexForced ones at cut-off 0; the serving history test and
# internal/spatial are where the exact stages' index is compared with the
# O(nN) forms, the training one where one step's arena buffers meet the next;
# internal/nn is where the fused bias/BatchNorm/ReLU/max-pool epilogue is
# compared with the layers one by one, internal/parallel the fan-out it and
# every other kernel split over, internal/model where featKNN's lanes and early
# exit are compared with the full scalar scan, internal/core where the window
# searcher's fan-out and its nearest-k kernel are compared with the scan.
for procs in 1 2 4 8; do
	GOMAXPROCS=$procs go test -count=1 -run 'TestGolden|TestOutputIndependentOfServingHistory|TestGradientsIndependentOfTrainingHistory' ./internal/pipeline/
	GOMAXPROCS=$procs go test -count=1 ./internal/spatial/ ./internal/tensor/ ./internal/nn/ ./internal/parallel/ ./internal/model/ ./internal/train/ ./internal/core/
done

echo "== one policy core (no ladder/backoff arithmetic or policy knobs in internal/loadgen) =="
# The simulator calls serve.Ladder, serve.ShedController and serve.RetryPolicy;
# a hand-written copy of their rules coming back is a regression. So is a
# Spec field or ParseSpec key for a ladder or shed threshold, the ring's
# vnodes or the spillover: those are serve's constants, and a simulated fleet
# no edgepc-serve flag can configure models nothing. The tests are left out
# of the second check: they hold the removed keys as rejection rows.
if grep -nE 'ladder(High|Low|Hyst)|mirror' internal/loadgen/*.go; then
	echo "internal/loadgen re-implements serve policy; call internal/serve instead" >&2
	exit 1
fi
if grep -nE '^[[:space:]]+((Ladder|Shed)(High|Low|Hyst)|VNodes|Spill)[[:space:]:]|"((ladder|shed)-(high|low|hyst)|vnodes|spill)"' \
	$(ls internal/loadgen/*.go | grep -v '_test\.go$'); then
	echo "internal/loadgen sets a serve policy threshold; serve's constants decide it" >&2
	exit 1
fi

echo "== ladder (every rung relieves load; DGCNN gets none) =="
# A rung that is not clearly cheaper than full fidelity makes overload worse.
# Wall-clock, min of the calibration frames: each rung above tier 0 must
# measure >= 1.5x faster on W1 under both configs, and W3 must get one tier.
# A trip prints the calibrated per-tier frame times it judged.
ladder_calibrate() {
	go run ./cmd/edgepc-loadgen -calibrate -workload "$1" -config "$2" -cal-frames 5 \
		-mults 1 -crossover 1 -out .ladder_cal.json >/dev/null
}
ladder_list() { # one JSON list of .ladder_cal.json, an element a line
	awk -v key="\"$1\"" 'index($0, key) { on = 1; next } on && /\]/ { exit } on { gsub(/[ ,]/, ""); print }' .ladder_cal.json
}
for cfg in S+N baseline; do
	ladder_calibrate W1 "$cfg"
	if ! ladder_list tier_speedup | awk -v cfg="$cfg" '
		NR > 1 && $1 + 0 < 1.5 { printf "ladder: W1 %s tier %d is only %sx faster than tier 0\n", cfg, NR - 1, $1; bad = 1 }
		END { if (NR < 2) { printf "ladder: W1 %s has no rung\n", cfg; exit 1 } exit bad }'; then
		echo "ladder: W1 $cfg calibrated svc/tier (ns, min of 5 frames): $(ladder_list svc_ns_tier | tr '\n' ' ')" >&2
		rm -f .ladder_cal.json
		exit 1
	fi
done
ladder_calibrate W3 S+N
w3_tiers=$(ladder_list tier_speedup | wc -l)
rm -f .ladder_cal.json
if [ "$w3_tiers" -ne 1 ]; then
	echo "ladder: W3 (DGCNN) must serve without a ladder" >&2
	exit 1
fi

echo "== fuzz (five seconds per target; see DESIGN.md §11, §15) =="
# Plain `go test` runs every f.Add seed; these search past them. The serving
# layer's chaos tests (panics, stalls, retries, Close) run under the race
# detector in the race stage, which covers ./internal/serve/... whole.
go test -run '^$' -fuzz '^FuzzSubmitFrame$' -fuzztime 5s ./internal/serve/
go test -run '^$' -fuzz '^FuzzLoadgenConfig$' -fuzztime 5s ./internal/loadgen/
go test -run '^$' -fuzz '^FuzzReadCheckpoint$' -fuzztime 5s ./internal/nn/
go test -run '^$' -fuzz '^FuzzQueriesMatchOracles$' -fuzztime 5s ./internal/spatial/

echo "== kernel parity under -race (the packages the race stage runs short or not at all) =="
# The race stage runs tensor, pipeline, model, spatial and core whole — the
# nearest-k kernel's tests (TestNearestK* in spatial, the window searcher's
# against its scan in core) with them — and the full pass runs the golden
# suite and TestAssemblyIsVEXOnly. What is left: nn's
# kernel comparisons (the race stage runs nn with -short) — the folded
# train-mode BatchNorm → ReLU forward and backward against the layers one by
# one, the backward products and Linear's gradient adds against their Go
# loops — and sample, which the race stage does not run: exact FPS's vector
# refresh against its Go loops, whole samplings and kernel by kernel, and
# ApplyPlan's interpolation kernel.
go test -race -run 'TestTrainFoldMatchesLayerByLayer|TestVectorBackward|TestVectorLinearGradientsMatchReference' ./internal/nn/
go test -race -run 'TestVectorRefreshMatchesGoLoops|TestVectorKernels|TestBucketFPS|TestApplyPlan' ./internal/sample/

echo "== bench smoke (1 iteration) =="
go test -run '^$' -bench 'BenchmarkMatMulAT' -benchtime=1x -benchmem ./internal/tensor/

echo "== bench_fps smoke (quick clouds) =="
# The large-scale sampling bench must keep producing parseable curves; the
# quick run writes to throwaway paths so the committed full-scale
# BENCH_fps.json is never clobbered by CI.
OUT=.bench_fps_smoke.json RAW=.bench_fps_smoke.txt scripts/bench_fps.sh -quick >/dev/null
grep -q '"sampler": "bucketfps"' .bench_fps_smoke.json
rm -f .bench_fps_smoke.json .bench_fps_smoke.txt

echo "== bench_serve smoke (quick virtual window, run twice, diff counts) =="
# The fleet traffic harness promises bit-reproducibility: two same-seed runs
# must emit identical scenario count lines, and the report must carry the
# schema the experiment log points at.
OUT=.bench_serve_smoke.json RAW=.bench_serve_smoke.txt scripts/bench_serve.sh -quick >/dev/null
grep -q '"bench": "serve_fleet"' .bench_serve_smoke.json
grep -q '"crossover"' .bench_serve_smoke.json
grep -q '"fairness_jain"' .bench_serve_smoke.json
grep -q '"survivability"' .bench_serve_smoke.json
grep -q '"retried"' .bench_serve_smoke.json
grep -E '^(scenario|survivability) mult=' .bench_serve_smoke.txt >.bench_serve_counts1.txt
OUT=.bench_serve_smoke.json RAW=.bench_serve_smoke.txt scripts/bench_serve.sh -quick >/dev/null
grep -E '^(scenario|survivability) mult=' .bench_serve_smoke.txt >.bench_serve_counts2.txt
diff .bench_serve_counts1.txt .bench_serve_counts2.txt
rm -f .bench_serve_smoke.json .bench_serve_smoke.txt .bench_serve_counts1.txt .bench_serve_counts2.txt

echo "== allocs/op regression gate =="
# Steady-state allocations per operation are capped per benchmark (DESIGN.md
# §6); raising a ceiling is a reviewed decision. Gated: the inference frame a
# serving worker runs (trace.Reset + net.Forward on a kept trace) on
# PointNet++ Baseline at 512 and 2048 points, S+N at 2048 and DGCNN at 512;
# a served frame through the engine; and a W3 S+N training step at -cpu 1
# and -cpu 2. -cpu 1 counts the frame's own allocations: on more cores a
# fan-out adds its body closure where it has one, which is not what is gated.
# The -cpu 2 training row is the exception: it gates the step's weight
# gradients on a worker beside the backward walk (a per-step go, channel or
# closure would show). Readings at -benchtime 1x: 3 / 3 / 5 / 3-5 for the
# frames (the S+N frame's two more are the Output's permutation and labels),
# 6 for the served frame, 6-8 for a step at -cpu 1 (8 when a collection has
# emptied a sync.Pool) and 6-7 over 50 steps at -cpu 2.
bench_out=$(go test -run '^$' -bench 'BenchmarkPipelineFrameAllocs' -benchtime=1x -benchmem -cpu 1 ./internal/pipeline/)
serve_out=$(go test -run '^$' -bench 'BenchmarkServeSteadyState' -benchtime=1x -benchmem -cpu 1 ./internal/serve/)
train_out=$(go test -run '^$' -bench 'BenchmarkTrainStep' -benchtime=1x -benchmem -cpu 1 ./internal/train/)
train2_out=$(go test -run '^$' -bench 'BenchmarkTrainStep' -benchtime=50x -benchmem -cpu 2 ./internal/train/)
printf '%s\n%s\n%s\n%s\n' "$bench_out" "$serve_out" "$train_out" "$train2_out"
printf '%s\n%s\n%s\n%s\n' "$bench_out" "$serve_out" "$train_out" "$train2_out" | awk '
	/^Benchmark/ {
		for (i = 1; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
		limit = -1
		if ($1 == "BenchmarkPipelineFrameAllocsPointNetPP")     limit = 5
		if ($1 == "BenchmarkPipelineFrameAllocsPointNetPP2048") limit = 5
		if ($1 == "BenchmarkPipelineFrameAllocsPointNetPPSN")   limit = 7
		if ($1 == "BenchmarkPipelineFrameAllocsDGCNN")          limit = 7
		if ($1 ~ /^BenchmarkServeSteadyState/)                  limit = 8
		if ($1 == "BenchmarkTrainStep")                         limit = 13
		if ($1 == "BenchmarkTrainStep-2")                       limit = 8
		if (limit >= 0) {
			seen++
			if (allocs + 0 > limit) {
				printf "allocs gate: %s allocated %s/op, ceiling %d\n", $1, allocs, limit
				bad = 1
			}
		}
	}
	END {
		if (seen < 7) { printf "allocs gate: matched %d of 7 benchmarks\n", seen; exit 1 }
		exit bad
	}
'

echo "ci: all green"
