package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
)

// String names the architecture (Table 1 uses these in the Model column
// prefixes).
func (a Arch) String() string {
	switch a {
	case ArchPointNetPP:
		return "pointnet++"
	case ArchDGCNN:
		return "dgcnn"
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// Build constructs the network for a workload under a configuration.
func Build(w Workload, kind ConfigKind, opts Options) (Net, error) {
	opts.defaults(w)
	switch w.Arch {
	case ArchPointNetPP:
		return buildPointNetPP(w, kind, opts)
	case ArchDGCNN:
		return buildDGCNN(w, kind, opts)
	}
	return nil, fmt.Errorf("pipeline: no network for architecture %v (known: %v, %v)", w.Arch, ArchDGCNN, ArchPointNetPP)
}

// mortonStructurize returns the structurization options for a configuration:
// nil for the baseline, Morton ordering for S+N and S+N+F. The models run
// their Morton approximations only on a structurized cloud, so the baseline
// ignores MortonLayers.
func mortonStructurize(kind ConfigKind, opts Options) *core.StructurizeOptions {
	if kind == Baseline {
		return nil
	}
	return &core.StructurizeOptions{TotalBits: opts.TotalBits}
}

func buildPointNetPP(w Workload, kind ConfigKind, opts Options) (Net, error) {
	return model.NewPointNetPP(model.PPConfig{
		Classes:       w.Classes,
		Depth:         opts.Depth,
		BaseWidth:     opts.BaseWidth,
		K:             w.K,
		SampleFrac:    opts.SampleFrac,
		SampleArch:    opts.SampleArch,
		SampleQuality: opts.SampleQuality,
		ExtraFeatDim:  opts.ExtraFeatDim,
		MortonLayers:  opts.MortonLayers,
		WindowW:       opts.WindowW,
		Structurize:   mortonStructurize(kind, opts),
		Seed:          opts.Seed,
	})
}

func buildDGCNN(w Workload, kind ConfigKind, opts Options) (Net, error) {
	reuse := core.ReusePolicy{}
	if kind != Baseline {
		reuse = core.ReusePolicy{Distance: opts.ReuseDistance}
	}
	return model.NewDGCNN(model.DGCNNConfig{
		Classes:      w.Classes,
		Modules:      opts.Modules,
		BaseWidth:    opts.BaseWidth,
		K:            w.K,
		ExtraFeatDim: opts.ExtraFeatDim,
		MortonLayers: opts.MortonLayers,
		WindowW:      opts.WindowW,
		Reuse:        reuse,
		Task:         w.Task,
		Structurize:  mortonStructurize(kind, opts),
		Seed:         opts.Seed,
	})
}
