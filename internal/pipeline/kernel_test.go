package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// TestGoldenBackendParity checks blocked's MatMulBiasInto — the kernel every
// Linear runs, eval and train — against the scalar reference loops at the
// GEMM shapes the models really run: for every golden workload × config it
// traces one golden frame, and at each StageFeature record's (Q, CIn, COut)
// multiplies seeded random operands plus a bias both ways. The contract is
// bit equality: blocked keeps the reference's per-cell accumulation order
// (k ascending, one accumulator per cell, the product rounded before the
// add), which is why TestGoldenLogits holds its fixtures under blocked.
func TestGoldenBackendParity(t *testing.T) {
	for _, w := range Workloads {
		for _, kind := range []ConfigKind{Baseline, SN} {
			w, kind := goldenScale(w), kind
			t.Run(fmt.Sprintf("%s_%s", w.ID, kind), func(t *testing.T) {
				net, err := Build(w, kind, goldenOptions())
				if err != nil {
					t.Fatal(err)
				}
				cloud, err := Frame(w, goldenFrameSeed)
				if err != nil {
					t.Fatal(err)
				}
				var trace model.Trace
				if _, err := net.Forward(cloud, &trace, false); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(w.Points)))
				fill := func(rows, cols int) *tensor.Matrix {
					m := tensor.New(rows, cols)
					for i := range m.Data {
						m.Data[i] = rng.Float32()*2 - 1
					}
					return m
				}
				shapes := 0
				for _, r := range trace.Records {
					if r.Stage != model.StageFeature {
						continue
					}
					shapes++
					a, b, bias := fill(r.Q, r.CIn), fill(r.CIn, r.COut), fill(1, r.COut).Data
					want, got := tensor.New(r.Q, r.COut), tensor.New(r.Q, r.COut)
					if err := tensor.MatMulBiasInto(want, a, b, bias); err != nil {
						t.Fatal(err)
					}
					if err := tensor.Blocked().MatMulBiasInto(got, a, b, bias); err != nil {
						t.Fatal(err)
					}
					for i, v := range got.Data {
						if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
							t.Fatalf("layer %d, %d×%d·%d×%d: cell %d is %v, reference %v",
								r.Layer, r.Q, r.CIn, r.CIn, r.COut, i, v, want.Data[i])
						}
					}
				}
				if shapes == 0 {
					t.Fatal("the traced frame has no feature records")
				}
			})
		}
	}
}
