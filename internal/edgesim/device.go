// Package edgesim models the edge device the paper evaluates on — an NVIDIA
// Jetson AGX Xavier (512-core Volta GPU, 64 tensor cores, 16 GB LPDDR4x) — as
// an analytical cost model over pipeline stage records.
//
// Why a model instead of hardware: this reproduction has no CUDA device. The
// paper's latency and energy results derive from (a) the operation counts of
// each stage, (b) how well each algorithm's structure maps onto a wide
// parallel machine (FPS serializes its n picks; Morton kernels are
// embarrassingly parallel; brute-force search is throughput-bound), and
// (c) measured component powers. The model charges exactly those quantities,
// so the *shapes* the paper reports — which algorithm wins, by roughly what
// factor, how the gap scales with batch size — are reproduced, while
// absolute milliseconds are simulator outputs, not wall-clock measurements.
//
// Calibration anchors (quoted in the paper):
//   - FPS of 1 024 from the 40 256-point Bunny ≈ 81.7 ms; uniform ≈ 1 ms (§4.2)
//   - Morton code generation for 8 192 points ≈ 0.1 ms (§5.1.2)
//   - baseline SMP+NS ≈ 33 ms/batch (ScanNet, B≈14) to 76 ms/batch (S3DIS, B=32);
//     EdgePC ≈ 9.7 and 14.6 ms/batch (§6.2)
//   - compute power 4.5 W → 4.2 W under the approximations; memory power
//     1.35 W → 1.63 W with index reuse (§6.2)
//   - tensor cores idle below a channel-dimension threshold (§5.4.1)
package edgesim

import "time"

// Device holds the cost-model parameters of an edge GPU.
type Device struct {
	Name string

	// KernelLaunch is the fixed overhead charged once per stage invocation
	// (kernel launch + driver).
	KernelLaunch time.Duration
	// SerialStep is the per-iteration overhead of serially dependent
	// algorithms (one FPS pick = one argmax reduction + update kernel).
	SerialStep time.Duration

	// DistThroughput is sustained 3-D point-distance evaluations per second
	// for irregular (divergent, gather-heavy) kernels.
	DistThroughput float64
	// MortonThroughput is Morton code generations per second (anchor:
	// 8 192 codes in 0.1 ms).
	MortonThroughput float64
	// SortThroughput is radix-sorted keys per second.
	SortThroughput float64
	// GatherThroughput is gathered/scattered elements per second for
	// index-pick kernels.
	GatherThroughput float64

	// CUDAFLOPS is the effective fp32 rate of pointwise (1×1-conv style)
	// feature kernels at saturation.
	CUDAFLOPS float64
	// GEMMFLOPS is the effective fp32 rate of large square GEMMs (e.g. the
	// N×N distance matrix of feature-space kNN), which utilize the SMs far
	// better than skinny pointwise convolutions.
	GEMMFLOPS float64
	// CUDAHalfChannels is the channel count at which CUDA GEMM reaches half
	// its effective rate (small channel dims underutilize the SMs).
	CUDAHalfChannels float64
	// TensorFLOPS is the effective rate once tensor cores engage.
	TensorFLOPS float64
	// TensorHalfChannels is the half-saturation channel count for tensor
	// cores.
	TensorHalfChannels float64
	// TensorMinChannels is the channel threshold below which tensor cores
	// stay idle (§5.4.1: a 12-channel conv ran with 0% TC utilization).
	TensorMinChannels int

	// MemBandwidth is effective DRAM bandwidth in bytes/second.
	MemBandwidth float64

	// Component powers in watts (from the paper's tegrastats measurements).
	BasePower          float64 // SoC idle + CPU housekeeping
	IrregularPower     float64 // CUDA cores running SOTA sample/search kernels (4.5 W)
	MortonPower        float64 // CUDA cores running the approximation kernels (4.2 W)
	FeaturePowerCUDA   float64 // feature compute on CUDA cores
	FeaturePowerTensor float64 // feature compute with tensor cores engaged
	GatherPower        float64 // memory-bound grouping stages
	MemPower           float64 // DRAM power, baseline (1.35 W)
	MemPowerReuse      float64 // DRAM power with the reuse buffer live (1.63 W)
}

// JetsonAGXXavier returns the device profile calibrated to the paper's
// quoted measurements (see the package comment for the anchor list).
func JetsonAGXXavier() *Device {
	return &Device{
		Name:         "NVIDIA Jetson AGX Xavier",
		KernelLaunch: 100 * time.Microsecond,
		SerialStep:   15 * time.Microsecond,

		DistThroughput:   10e9,
		MortonThroughput: 82e6,
		SortThroughput:   150e6,
		GatherThroughput: 20e9, // ~4-byte elements at full DRAM bandwidth

		CUDAFLOPS:          150e9,
		GEMMFLOPS:          500e9,
		CUDAHalfChannels:   32,
		TensorFLOPS:        600e9,
		TensorHalfChannels: 128,
		TensorMinChannels:  16,

		MemBandwidth: 100e9,

		BasePower:          2.5,
		IrregularPower:     4.5,
		MortonPower:        4.2,
		FeaturePowerCUDA:   5.5,
		FeaturePowerTensor: 6.5,
		GatherPower:        3.5,
		MemPower:           1.35,
		MemPowerReuse:      1.63,
	}
}

// scaled returns a copy of the device with compute throughputs multiplied by
// compute, memory-side rates by mem, and powers by power. Fixed overheads
// (kernel launch, serial step) scale inversely with compute: a faster part
// also dispatches faster.
func (d *Device) scaled(name string, compute, mem, power float64) *Device {
	out := *d
	out.Name = name
	out.DistThroughput *= compute
	out.MortonThroughput *= compute
	out.SortThroughput *= compute
	out.CUDAFLOPS *= compute
	out.GEMMFLOPS *= compute
	out.TensorFLOPS *= compute
	out.GatherThroughput *= mem
	out.MemBandwidth *= mem
	out.KernelLaunch = time.Duration(float64(out.KernelLaunch) / compute)
	out.SerialStep = time.Duration(float64(out.SerialStep) / compute)
	out.BasePower *= power
	out.IrregularPower *= power
	out.MortonPower *= power
	out.FeaturePowerCUDA *= power
	out.FeaturePowerTensor *= power
	out.GatherPower *= power
	out.MemPower *= power
	out.MemPowerReuse *= power
	return &out
}

// JetsonOrinNX returns a profile for the Xavier's successor tier: roughly
// 2.5× the compute and 1.5× the memory bandwidth at moderately higher power.
func JetsonOrinNX() *Device {
	return JetsonAGXXavier().scaled("NVIDIA Jetson Orin NX", 2.5, 1.5, 1.2)
}

// JetsonNano returns a profile for the entry tier: about a quarter of the
// Xavier's compute and 40% of its bandwidth at lower power — the devices
// where the paper's bottleneck bites hardest.
func JetsonNano() *Device {
	return JetsonAGXXavier().scaled("NVIDIA Jetson Nano", 0.25, 0.4, 0.5)
}

// cudaRate returns the effective CUDA GEMM rate at channel width c.
func (d *Device) cudaRate(c int) float64 {
	if c <= 0 {
		c = 1
	}
	u := float64(c) / (float64(c) + d.CUDAHalfChannels)
	return d.CUDAFLOPS * u
}

// tensorRate returns the effective tensor-core rate at channel width c, or 0
// when tensor cores do not engage.
func (d *Device) tensorRate(c int) float64 {
	if c < d.TensorMinChannels {
		return 0
	}
	u := float64(c) / (float64(c) + d.TensorHalfChannels)
	return d.TensorFLOPS * u
}

// TensorCoreUtilization reports the modelled utilization fraction at channel
// width c (0 when the cores do not engage), used by the §5.4.1 experiment.
func (d *Device) TensorCoreUtilization(c int) float64 {
	if c < d.TensorMinChannels {
		return 0
	}
	return float64(c) / (float64(c) + d.TensorHalfChannels)
}
