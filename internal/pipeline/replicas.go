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
// Loading trained weights into replica 0 (nn.LoadParams writes in place)
// updates every replica; do it before serving starts. Training any replica
// while others serve would race on the shared values — replicas are for
// inference.
func Replicas(w Workload, kind ConfigKind, opts Options, n int) ([]Net, error) {
	if n < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 replica, got %d", n)
	}
	nets := make([]Net, n)
	for i := range nets {
		net, err := Build(w, kind, opts)
		if err != nil {
			return nil, fmt.Errorf("pipeline: replica %d: %w", i, err)
		}
		if i > 0 {
			if err := nn.ShareParams(net.Params(), nets[0].Params()); err != nil {
				return nil, fmt.Errorf("pipeline: replica %d: %w", i, err)
			}
		}
		nets[i] = net
	}
	return nets, nil
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
// search cheap, so W/2 saves nothing; the int8 backend makes a frame slower
// than the float32 one it replaces; a longer reuse distance is in the noise.
// On DGCNN every one of them costs more than full fidelity and there is no
// sample budget to cut, so DGCNN workloads get no rung at all and serve runs
// them without a ladder.
//
// The rung never changes parameter shapes, so its replicas share weights
// with the base net (TieredReplicas).
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

// FleetReplicas builds the replica tensor for a multi-engine fleet:
// result[e] is a TieredReplicas-shaped matrix (row 0 full fidelity, row 1+i
// tier i) for engine e, and every net across every engine, tier and worker
// shares one set of trainable parameters with result[0][0][0]. The weights
// therefore exist once per process however wide the fleet scales — the
// construction serve.NewRouter expects: one serve.New engine per
// result[e], wired into one Router.
func FleetReplicas(w Workload, kind ConfigKind, opts Options, engines, workers int, tiers []Options) ([][][]Net, error) {
	if engines < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 engine, got %d", engines)
	}
	fleet := make([][][]Net, engines)
	rows, err := TieredReplicas(w, kind, opts, workers, tiers)
	if err != nil {
		return nil, err
	}
	fleet[0] = rows
	ref := rows[0][0]
	for e := 1; e < engines; e++ {
		rows := make([][]Net, 1+len(tiers))
		for ti := range rows {
			topt := opts
			if ti > 0 {
				topt = tiers[ti-1]
			}
			row := make([]Net, workers)
			for wi := range row {
				net, err := RebuildReplica(ref, w, kind, topt)
				if err != nil {
					return nil, fmt.Errorf("pipeline: engine %d tier %d replica %d: %w", e, ti, wi, err)
				}
				row[wi] = net
			}
			rows[ti] = row
		}
		fleet[e] = rows
	}
	return fleet, nil
}

// TieredReplicas builds the replica matrix for a degraded serving ladder:
// row 0 holds workers full-fidelity replicas of the base options, and row
// 1+i holds workers replicas built with tiers[i] — every net in every row
// sharing one set of trainable parameters with the base replica. serve wires
// row 0 into New and the remaining rows into Config.Degrade.
func TieredReplicas(w Workload, kind ConfigKind, opts Options, workers int, tiers []Options) ([][]Net, error) {
	base, err := Replicas(w, kind, opts, workers)
	if err != nil {
		return nil, err
	}
	rows := make([][]Net, 1, 1+len(tiers))
	rows[0] = base
	for ti, topt := range tiers {
		row := make([]Net, workers)
		for i := range row {
			net, err := RebuildReplica(base[0], w, kind, topt)
			if err != nil {
				return nil, fmt.Errorf("pipeline: tier %d replica %d: %w", ti+1, i, err)
			}
			row[i] = net
		}
		rows = append(rows, row)
	}
	return rows, nil
}
