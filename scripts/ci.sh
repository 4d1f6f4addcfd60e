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
# sample.BucketFPS's refresh, sample.ApplyPlan and the spatial 3-NN join's
# best-three selection have amd64 assembly behind *_amd64 files; every
# other GOARCH must build and vet from the stubs beside them. A VFMADD would
# round once where the Go kernels round twice and move every golden fixture;
# the grep covers every *.s file in the tree.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor/ ./internal/nn/ ./internal/model/ ./internal/sample/ ./internal/spatial/
if grep -rniE 'vfn?m(add|sub)' --include='*.s' .; then
	echo "assembly uses a fused multiply-add; the vector kernels must round like the Go ones" >&2
	exit 1
fi

echo "== no compiler-fused multiply-add on arm64 (geom, sample, spatial, tensor, nn, model, dataset, morton, core) =="
# The Go spec lets a compiler fuse x*y + z, and the arm64 one does. The
# geometry the exact stages run on and the network's kernels, forward,
# backward and optimizer, and the generators behind every golden input, round
# every product with an explicit float64(...) or float32(...) conversion,
# which the spec says prevents that: one FMADD in these packages and the
# spatial index's pruning bounds, the FPS picks, the logits, the gradients and
# the golden fixtures would differ between amd64 and arm64. The Morton
# encoder and the structurization decide the order every S+N logit is
# computed in. A warm build cache replays the compiler output, so no -a is
# needed.
fused=$(GOARCH=arm64 go build -gcflags=-S ./internal/geom/ ./internal/sample/ ./internal/spatial/ \
	./internal/tensor/ ./internal/nn/ ./internal/model/ ./internal/dataset/ ./internal/morton/ ./internal/core/ 2>&1 |
	grep -E '[[:space:]]F(N)?M(ADD|SUB)[DS][[:space:]]' || true)
if [ -n "$fused" ]; then
	printf '%s\n' "$fused" >&2
	echo "the arm64 compiler fused a multiply-add in geom, sample, spatial, tensor, nn, model, dataset, morton or core; round the product with an explicit conversion" >&2
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

echo "== numerics independent of core count (golden + history + spatial + tensor + nn + parallel + model + train, GOMAXPROCS 1/2/4/8) =="
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
# exit are compared with the full scalar scan.
for procs in 1 2 4 8; do
	GOMAXPROCS=$procs go test -count=1 -run 'TestGolden|TestOutputIndependentOfServingHistory|TestGradientsIndependentOfTrainingHistory' ./internal/pipeline/
	GOMAXPROCS=$procs go test -count=1 ./internal/spatial/ ./internal/tensor/ ./internal/nn/ ./internal/parallel/ ./internal/model/ ./internal/train/
done

echo "== one policy core (no ladder/backoff arithmetic in internal/loadgen) =="
# The simulator calls serve.Ladder and serve.RetryPolicy;
# a hand-written copy of their rules coming back is a regression.
if grep -nE 'ladder(High|Low|Hyst)|mirror' internal/loadgen/*.go; then
	echo "internal/loadgen re-implements serve policy; call internal/serve instead" >&2
	exit 1
fi

echo "== ladder (every rung relieves load; DGCNN gets none) =="
# A rung that is not clearly cheaper than full fidelity makes overload worse.
# Wall-clock, min of the calibration frames: each rung above tier 0 must
# measure >= 1.5x faster on W1 under both configs, and W3 must get one tier.
ladder_speedups() {
	go run ./cmd/edgepc-loadgen -calibrate -workload "$1" -config "$2" -cal-frames 5 \
		-mults 1 -crossover 1 -out .ladder_cal.json >/dev/null
	awk '/"tier_speedup"/ { on = 1; next } on && /\]/ { exit } on { gsub(/[ ,]/, ""); print }' .ladder_cal.json
	rm -f .ladder_cal.json
}
for cfg in S+N baseline; do
	ladder_speedups W1 "$cfg" | awk -v cfg="$cfg" '
		NR > 1 && $1 + 0 < 1.5 { printf "ladder: W1 %s tier %d is only %sx faster than tier 0\n", cfg, NR - 1, $1; bad = 1 }
		END { if (NR < 2) { printf "ladder: W1 %s has no rung\n", cfg; exit 1 } exit bad }'
done
if [ "$(ladder_speedups W3 S+N | wc -l)" -ne 1 ]; then
	echo "ladder: W3 (DGCNN) must serve without a ladder" >&2
	exit 1
fi

echo "== fuzz smoke (seed corpus only) =="
# Plain `go test` already runs every f.Add seed through the fuzz targets;
# this stage just pins the targets by name so a renamed/deleted one fails
# loudly instead of silently shrinking coverage.
go test -run '^Fuzz' ./internal/compress/ ./internal/dataset/ ./internal/nn/ ./internal/serve/ ./internal/loadgen/ ./internal/spatial/

echo "== chaos smoke (fault injection under -race; see DESIGN.md §11, §15) =="
# The resilience layer's promises — panics isolated and quarantined, invalid
# input rejected at admission, Close never hung by a parked breaker, the
# degradation ladder stepping both ways, stalled workers detected and
# respawned, retries conserving the accounting under a stall storm,
# every Submit exit leaving Close clean, the caller's context reaching the
# engine on every router path — exercised under the race detector.
go test -race -run 'TestChaos|TestCircuitBreaker|TestCloseDoesNotWaitOutBreakerPark|TestLastResort|TestDegradation|TestAdmission|TestCorruptInjection|TestDelayAndStall|TestFleetChaos|TestStall|TestBreakerBackoffJitterPinned|TestRetry|TestExpiredDeadline|TestRouterSurvivability|TestSubmitOutcomesCloseClean|TestRouterThreadsCallerContext' ./internal/serve/
go test -run '^$' -fuzz '^FuzzSubmitFrame$' -fuzztime 5s ./internal/serve/
go test -run '^$' -fuzz '^FuzzLoadgenConfig$' -fuzztime 5s ./internal/loadgen/
go test -run '^$' -fuzz '^FuzzReadCheckpoint$' -fuzztime 5s ./internal/nn/
go test -run '^$' -fuzz '^FuzzQueriesMatchOracles$' -fuzztime 5s ./internal/spatial/

echo "== kernel parity (golden suite; blocked against the reference loops at the models' shapes) =="
# Every layer runs blocked's kernels. Run the golden-logit suite (blocked
# against bit-exact fixtures) and, under the race detector, the check that
# blocked's MatMulBiasInto is bit-equal to the scalar reference loops at every
# feature-stage GEMM shape the golden workloads trace. The tensor tests below
# cover the blocked property and concurrency tests, the per-block parallel
# MatMul, and the name switch and int8 kernel that bench/'s
# tensor.matmul.*_ms probes still call.
go test -run 'TestGolden' ./internal/pipeline/
go test -race -run 'TestGoldenBackendParity' ./internal/pipeline/
go test -race -run 'TestQuickBlockedMatMulMatchesNaive|TestQuickInt8RoundTrip|TestInt8MatMulWithinAnalyticBound|TestBlockedBackendConcurrent|TestBackendRegistry|TestInt8WeightCacheReuse|TestBackendValidationMatchesReference|TestMatMulBiasIntoIsMatMulIntoPlusBias|TestVectorGEMM|TestVectorATBT|TestZeroTimesInfIsNaNEverywhere|TestVectorPool|TestPoolTiesKeepTheLowestRow' ./internal/tensor/
# Training runs the same kernels: the backward products above, the argmax
# pool, the folded train-mode BatchNorm → ReLU forward and backward, Linear's
# gradient adds and featKNN's two lane scans and its tile schedule, all of it
# from the training
# arena, whose recycled buffers must not leak one step into the next. Exact
# FPS's vector refresh is compared with its Go loops, whole samplings and
# kernel by kernel, and so is ApplyPlan's interpolation kernel. The 3-NN
# join's best-three kernel is compared with its Go loop, the Go loop with a
# sort, and the join under either with sample.ThreeNN's plans; every
# assembly file is held to VEX-only instructions (TestAssemblyIsVEXOnly).
go test -race -run 'TestTrainFoldMatchesLayerByLayer|TestVectorBackward|TestVectorLinearGradientsMatchReference' ./internal/nn/
go test -race -run 'TestGradientsIndependentOfTrainingHistory|TestBackwardAfterEvalForwardFails' ./internal/pipeline/
go test -race -run 'TestFeatKNNMatchesScalarOracle|TestFeatKNNScheduleIndependent|TestKNNScan|TestKNNSym' ./internal/model/
go test -race -run 'TestVectorRefreshMatchesGoLoops|TestVectorKernels|TestBucketFPS|TestApplyPlan' ./internal/sample/
go test -race -run 'TestBest3|TestJoin' ./internal/spatial/
go test -run 'TestAssemblyIsVEXOnly' .

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
# The zero-allocation hot path (DESIGN.md §6) must not regress: steady-state
# frame allocation counts are capped per benchmark. Raising a ceiling is a
# reviewed decision, not a drive-by. -cpu 1: the ceilings count the frame's own
# allocations; a fan-out on more cores adds its body closure where it has one
# (goroutine starts allocate nothing since parallel.Split; DGCNN reads 15-16/op,
# PointNet++ at 2048 points 24 and its S+N row 52 at GOMAXPROCS=2), which is
# not what is gated.
# The first two PointNet++ rows are Baseline frames, every exact stage through
# internal/spatial: at 512 points one level is large enough for its grid, at
# 2048 two are and the rest take its linear scan. Both measure 13 (16 before
# sample.ApplyPlan's kernel replaced its fan-out closure, 31 before the
# coordinate plan kept its samples, neighbor lists, interpolation plans and
# per-level indexes across frames). The S+N row measures 16: the Baseline
# frame's 13, the Output's permutation and labels, which must outlive the
# frame, and one more (33 before the graph structurized into kept buffers and
# the Morton window search drew its fan-out from a pool). DGCNN measures 15
# (25 before featKNN's lists came from the workspace) and the serve loop 13
# (16 before the ApplyPlan kernel, 31 before the coordinate plan; 62 / 62 / 46
# / 62 before the shared MLP's epilogue was fused: on one core every
# parallel.ForChunks call allocated its closure even to run it inline, and
# each Linear, bias, BatchNorm, ReLU and max-pool was one or more such calls
# or workspace round trips). A W3 S+N training step (after two warm-up steps)
# measures 6, 8 when a collection has emptied a sync.Pool (21 before the
# graph structurized into kept buffers and DGCNN's window list was kept: the
# clone, the permutation's copies and the sort's buffers; 25 before featKNN's
# lists came from the training arena, 536 before training ran the vector
# kernels, 212 before its activations and gradients came from the net's
# training arena), and a kernel that starts allocating per call shows here.
# At -cpu 2 a step's Linear weight gradients run on a worker beside the
# backward walk, a fan-out this row gates (a per-step go, channel or closure
# would show): the mean over 50 steps reads 6-7 (21-22 before the kept
# structurization; a single step reads more: the first steps grow sync.Pools
# and the arena on a schedule of their own).
bench_out=$(go test -run '^$' -bench 'BenchmarkPipelineFrameAllocs' -benchtime=1x -benchmem -cpu 1 ./internal/pipeline/)
serve_out=$(go test -run '^$' -bench 'BenchmarkServeSteadyState' -benchtime=1x -benchmem -cpu 1 ./internal/serve/)
train_out=$(go test -run '^$' -bench 'BenchmarkTrainStep' -benchtime=1x -benchmem -cpu 1 ./internal/train/)
train2_out=$(go test -run '^$' -bench 'BenchmarkTrainStep' -benchtime=50x -benchmem -cpu 2 ./internal/train/)
printf '%s\n%s\n%s\n%s\n' "$bench_out" "$serve_out" "$train_out" "$train2_out"
printf '%s\n%s\n%s\n%s\n' "$bench_out" "$serve_out" "$train_out" "$train2_out" | awk '
	/^Benchmark/ {
		for (i = 1; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
		limit = -1
		if ($1 == "BenchmarkPipelineFrameAllocsPointNetPP")     limit = 15
		if ($1 == "BenchmarkPipelineFrameAllocsPointNetPP2048") limit = 15
		if ($1 == "BenchmarkPipelineFrameAllocsPointNetPPSN")   limit = 16
		if ($1 == "BenchmarkPipelineFrameAllocsDGCNN")          limit = 26
		if ($1 ~ /^BenchmarkServeSteadyState/)                  limit = 15
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
