package pipeline

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/sample"
)

// Replicas constructs n networks for the same workload/configuration whose
// trainable parameters share backing storage (nn.ShareParams): replica 0 is
// built normally and every further replica's Param.Value matrices are
// re-pointed at replica 0's. The weights therefore exist once per process
// while everything mutable per frame — tensor workspace, layer caches,
// DGCNN reuse cache, BatchNorm running statistics — stays private per
// replica, which is exactly the split concurrent serving needs: one replica
// per worker goroutine, zero cross-worker synchronization on the hot path.
//
// Loading trained weights into replica 0 (LoadCheckpoint writes in place)
// updates every replica; do it before serving starts. Training any replica
// while others serve would race on the shared values — replicas are for
// inference.
func Replicas(w Workload, kind ConfigKind, opts Options, n int) ([]Net, error) {
	fleet, err := FleetReplicas(w, kind, opts, 1, n, nil)
	if err != nil {
		return nil, err
	}
	return fleet[0][0], nil
}

// RebuildReplica constructs a fresh net for the workload/configuration and
// re-points its parameters at ref's (nn.ShareParams) — the serve-layer
// quarantine hook: when a worker's replica panics mid-frame, its workspace
// and caches can no longer be trusted, so the engine swaps in a replica
// rebuilt from the shared weights. Safe to call concurrently from several
// workers; ref's parameters are only read.
func RebuildReplica(ref Net, w Workload, kind ConfigKind, opts Options) (Net, error) {
	if ref == nil {
		return nil, fmt.Errorf("pipeline: rebuild needs a reference net")
	}
	net, err := Build(w, kind, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: rebuild: %w", err)
	}
	if err := nn.ShareParams(net.Params(), ref.Params()); err != nil {
		return nil, fmt.Errorf("pipeline: rebuild: %w", err)
	}
	return net, nil
}

// DegradeTierName is the display name of the rung DegradeTiers derives.
const DegradeTierName = "budget/2+bucketfps@0.5"

// DegradeTiers derives the option presets for serve's degradation ladder
// from a base configuration: for any n ≥ 1, the one rung that measures
// cheaper than full fidelity wherever it is armed — half the PointNet++
// sample budget (SampleFrac/2, floor 0.05), taken with bucketed pruned FPS
// at quality 0.5 by the sites that still run exact FPS (sites already on the
// Morton stride are untouched). n < 1 means no ladder.
//
// The other approximation knobs are not rungs because they do not relieve
// load (EXPERIMENTS.md, PR 13): under S+N the Morton window has already made
// search cheap, so W/2 saves nothing; the int8 kernel made a frame slower
// than the float32 one it would replace; a longer reuse distance is in the noise.
// On DGCNN every one of them costs more than full fidelity and there is no
// sample budget to cut, so DGCNN workloads get no rung at all and serve runs
// them without a ladder.
//
// The rung never changes parameter shapes, so its replicas share weights
// with the base net (FleetReplicas).
func DegradeTiers(w Workload, opts Options, n int) []Options {
	if n < 1 || w.Arch != ArchPointNetPP {
		return nil
	}
	opts.defaults(w)
	opts.SampleFrac = math.Max(opts.SampleFrac/2, 0.05)
	opts.SampleArch = sample.ArchBucketFPS
	opts.SampleQuality = 0.5
	return []Options{opts}
}

// FleetReplicas builds the replica tensor for a fleet of engines serving one
// workload: result[e][0] holds engine e's workers full-fidelity replicas of
// the base options and result[e][1+i] its workers replicas built with
// tiers[i] (serve wires row 0 into NewEngine and the rest into
// Config.Degrade). Every net across every engine, tier and worker shares one
// set of trainable parameters with result[0][0][0] (as Replicas describes),
// so the weights exist once per process however wide the fleet scales. One
// engine (engines = 1) is the single-engine serving set.
func FleetReplicas(w Workload, kind ConfigKind, opts Options, engines, workers int, tiers []Options) ([][][]Net, error) {
	if engines < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 engine, got %d", engines)
	}
	if workers < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 replica, got %d", workers)
	}
	ref, err := Build(w, kind, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: replica 0: %w", err)
	}
	fleet := make([][][]Net, engines)
	for e := range fleet {
		rows := make([][]Net, 1+len(tiers))
		for ti := range rows {
			topt := opts
			if ti > 0 {
				topt = tiers[ti-1]
			}
			row := make([]Net, workers)
			for wi := range row {
				if e == 0 && ti == 0 && wi == 0 {
					row[wi] = ref
					continue
				}
				if row[wi], err = RebuildReplica(ref, w, kind, topt); err != nil {
					return nil, fmt.Errorf("pipeline: engine %d tier %d replica %d: %w", e, ti, wi, err)
				}
			}
			rows[ti] = row
		}
		fleet[e] = rows
	}
	return fleet, nil
}
