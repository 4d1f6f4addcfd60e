package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/pipeline"
)

// cloudFromBytes decodes fuzz input into a cloud: byte 0 packs the point
// count (low bits) and feature width (high bits); the rest become raw
// float64 bit patterns, so NaN, ±Inf, subnormals and coincident points all
// fall out of the corpus naturally. Exhausted input reads as zeros, which
// yields coincident points — a degenerate box — on purpose.
func cloudFromBytes(data []byte) *geom.Cloud {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0] & 0x3f)
	featDim := int(data[0] >> 6)
	c := geom.NewCloud(n, featDim)
	idx := 1
	next := func() float64 {
		var buf [8]byte
		for i := 0; i < 8 && idx < len(data); i++ {
			buf[i] = data[idx]
			idx++
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	for i := range c.Points {
		c.Points[i] = geom.Point3{X: next(), Y: next(), Z: next()}
	}
	for i := range c.Feat {
		c.Feat[i] = float32(next())
	}
	return c
}

// FuzzSubmitFrame drives Submit with arbitrary decoded frames against a
// replica that panics if an invalid one slips past admission. The invariants:
// Submit never panics the caller, never admits a frame validateFrame rejects,
// and never surfaces ErrPanic (the strict replica only panics on an
// admission breach).
func FuzzSubmitFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                      // zero points
	f.Add([]byte{4})                      // 4 points, all zero → degenerate box
	f.Add([]byte{1})                      // single point: valid despite zero extent
	f.Add([]byte{0x42, 1, 2, 3, 4, 5, 6}) // 2 points + 1-wide features, short data
	nan := make([]byte, 1+3*8)
	nan[0] = 2
	binary.LittleEndian.PutUint64(nan[1:], math.Float64bits(math.NaN()))
	f.Add(nan)
	inf := make([]byte, 1+3*8)
	inf[0] = 3
	binary.LittleEndian.PutUint64(inf[1+8:], math.Float64bits(math.Inf(-1)))
	f.Add(inf)
	valid := make([]byte, 1+2*3*8)
	valid[0] = 2
	for i := 0; i < 6; i++ {
		binary.LittleEndian.PutUint64(valid[1+i*8:], math.Float64bits(float64(i)))
	}
	f.Add(valid)

	e, err := NewEngine([]pipeline.Net{&strictStubNet{id: 0}, &strictStubNet{id: 1}}, Config{QueueDepth: 64})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		c := cloudFromBytes(data)
		res, err := e.Submit(context.Background(), Request{Cloud: c})
		switch {
		case err == nil:
			if verr := validateFrame(c); verr != nil {
				t.Fatalf("Submit admitted a frame validateFrame rejects: %v", verr)
			}
			if res.Output == nil {
				t.Fatal("served frame has no output")
			}
		case errors.Is(err, ErrPanic):
			t.Fatalf("invalid frame reached a worker: %v", err)
		case errors.Is(err, ErrInvalidInput), errors.Is(err, ErrQueueFull):
			// Expected rejection paths (queue-full only under parallel fuzzing).
		default:
			t.Fatalf("unexpected Submit error: %v", err)
		}
	})
}
