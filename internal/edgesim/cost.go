package edgesim

import (
	"math"
	"time"

	"repro/internal/model"
)

// Config describes the execution configuration a trace is priced under — the
// paper's Baseline / S+N / S+N+F axes plus batch size.
type Config struct {
	// Batch is the number of batch elements processed together. Stage
	// records describe one cloud; throughput-bound work scales linearly
	// with Batch while per-stage launch overhead is paid once — this is the
	// mechanism behind the paper's observation that larger batches benefit
	// more from the approximations (W1 vs W2 in §6.2).
	Batch int
	// TensorCores deploys the feature-compute stage to tensor cores (the
	// "+F" configurations), engaging only above the channel threshold.
	TensorCores bool
	// Reuse indicates the neighbor-index reuse buffer is live, raising DRAM
	// power (4.5→... 1.35 W → 1.63 W in the paper's measurement).
	Reuse bool
	// SortedGrouping applies the §5.4.2 sorted-index grouping optimization,
	// reducing grouping-stage DRAM traffic.
	SortedGrouping bool
}

func (c Config) batch() float64 {
	if c.Batch < 1 {
		return 1
	}
	return float64(c.Batch)
}

// sortedGroupingTrafficFactor is the §5.4.2 measurement: sorting each row of
// the neighbor-index matrix cuts L2 traffic 53.9% and DRAM traffic 25.7%; we
// charge the DRAM reduction against the memory-bound grouping stage.
const sortedGroupingTrafficFactor = 1 - 0.257

// StageLatency prices one stage record under a configuration.
func (d *Device) StageLatency(r model.StageRecord, cfg Config) time.Duration {
	b := cfg.batch()
	launch := d.KernelLaunch
	var sec float64
	switch r.Stage {
	case model.StageSample:
		switch r.Algo {
		case "fps":
			// Q serial picks; each pick reduces over the whole batch's N
			// points (one fused kernel per pick).
			perPick := d.SerialStep.Seconds() + b*float64(r.N)/d.DistThroughput
			return time.Duration(float64(r.Q) * perPick * float64(time.Second))
		case "morton":
			// The standalone Algorithm 1: encode (parallel) + radix sort +
			// stride pick; three launches.
			sec = b*float64(r.N)/d.MortonThroughput +
				b*float64(r.N)/d.SortThroughput +
				b*float64(r.Q)/d.GatherThroughput
			launch = 3 * d.KernelLaunch
		case "bucketfps":
			// Bucketed pruned FPS: each of the Q serial picks scans the
			// ≈√N bucket summaries and replays distances in a handful of
			// refreshed buckets (≈8·√N points per pick empirically — see
			// BENCH_fps.json for measured curves) instead of all N points.
			rootN := math.Sqrt(float64(r.N))
			perPick := d.SerialStep.Seconds() + 8*b*rootN/d.DistThroughput
			return time.Duration(float64(r.Q) * perPick * float64(time.Second))
		case "morton-pick", "random", "uniform", "stride":
			// Stride pick over an already-structurized level (the encode +
			// sort cost is the trace's StageStructurize record).
			sec = b * float64(r.Q) / d.GatherThroughput
		case "grid":
			sec = 2 * b * float64(r.N) / d.GatherThroughput
		default:
			sec = b * float64(r.N) / d.GatherThroughput
		}
	case model.StageNeighbor:
		if r.Reused {
			// The cached index array is handed to the next stage; only a
			// token bookkeeping cost.
			return d.KernelLaunch / 10
		}
		switch r.Algo {
		case "ball-query", "knn-brute":
			sec = b * float64(r.N) * float64(r.Q) / d.DistThroughput
		case "knn-feature":
			// Feature-space kNN is GEMM-able (‖a−b‖² = ‖a‖²+‖b‖²−2a·b, with
			// the cross term a matrix multiply — how the PyTorch DGCNN
			// computes it), so the distance matrix runs at GEMM rates; the
			// top-k selection stays an irregular pass over the N×Q matrix.
			c := float64(r.CIn)
			if c < 3 {
				c = 3
			}
			gemm := 2 * b * float64(r.N) * float64(r.Q) * c / d.GEMMFLOPS
			selection := b * float64(r.N) * float64(r.Q) / d.DistThroughput
			sec = gemm + selection
		case "morton-window":
			if r.W > r.K {
				sec = b * float64(r.Q) * float64(r.W) / d.DistThroughput
			} else {
				// Pure index pick: a gather, no distance math.
				sec = b * float64(r.Q) * float64(r.K) / d.GatherThroughput
			}
		default:
			sec = b * float64(r.N) * float64(r.Q) / d.DistThroughput
		}
	case model.StageGroup:
		bytes := float64(b*float64(r.Q)*float64(r.K)*float64(r.CIn)*4) * 2 // read + write
		if cfg.SortedGrouping {
			bytes *= sortedGroupingTrafficFactor
		}
		sec = bytes / d.MemBandwidth
	case model.StageFeature:
		flops := 2 * b * float64(r.Q) * float64(r.CIn) * float64(r.COut)
		rate := d.cudaRate(r.CIn)
		if cfg.TensorCores {
			if tr := d.tensorRate(r.CIn); tr > rate {
				rate = tr
			}
		}
		bytes := b * float64(r.Q) * float64(r.CIn+r.COut) * 4
		sec = flops/rate + bytes/d.MemBandwidth
	case model.StageInterp:
		switch r.Algo {
		case "morton-interp":
			// Constant candidate set per target point.
			cand := float64(r.K) + 1
			sec = b * float64(r.N) * cand / d.DistThroughput
		default: // three-nn: exhaustive search over the coarse set
			sec = b * float64(r.N) * float64(r.Q) / d.DistThroughput
		}
	case model.StageStructurize:
		sec = b*float64(r.N)/d.MortonThroughput + b*float64(r.N)/d.SortThroughput
		launch = 2 * d.KernelLaunch
	default:
		sec = 0
	}
	return launch + time.Duration(sec*float64(time.Second))
}

// StagePower returns the compute-component power draw while the given record
// executes.
func (d *Device) StagePower(r model.StageRecord, cfg Config) float64 {
	switch r.Stage {
	case model.StageSample, model.StageNeighbor, model.StageInterp:
		switch r.Algo {
		case "morton", "morton-pick", "morton-window", "morton-interp", "uniform", "stride", "reuse":
			return d.MortonPower
		default:
			return d.IrregularPower
		}
	case model.StageStructurize:
		return d.MortonPower
	case model.StageGroup:
		return d.GatherPower
	case model.StageFeature:
		if cfg.TensorCores && r.CIn >= d.TensorMinChannels {
			return d.FeaturePowerTensor
		}
		return d.FeaturePowerCUDA
	default:
		return d.BasePower
	}
}
