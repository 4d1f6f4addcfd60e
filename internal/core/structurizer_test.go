package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/morton"
)

// oracleStructurize is structurization as Structurize computed it before the
// Structurizer: the box as a math.Min / math.Max fold, the encoder's codes,
// the comparison sort's stable order, and a clone permuted in place.
func oracleStructurize(c *geom.Cloud, opts StructurizeOptions) (*Structurized, error) {
	bits := opts.TotalBits
	if bits == 0 {
		bits = morton.DefaultTotalBits
	}
	inf := math.Inf(1)
	b := geom.AABB{Min: geom.Point3{X: inf, Y: inf, Z: inf}, Max: geom.Point3{X: -inf, Y: -inf, Z: -inf}}
	for _, p := range c.Points {
		b.Min = geom.Point3{X: math.Min(b.Min.X, p.X), Y: math.Min(b.Min.Y, p.Y), Z: math.Min(b.Min.Z, p.Z)}
		b.Max = geom.Point3{X: math.Max(b.Max.X, p.X), Y: math.Max(b.Max.Y, p.Y), Z: math.Max(b.Max.Z, p.Z)}
	}
	if opts.Bounds != nil {
		b = *opts.Bounds
	}
	var enc *morton.Encoder
	var err error
	if opts.GridSize > 0 {
		enc, err = morton.NewEncoderWithGrid(b.Min, opts.GridSize, bits/3)
	} else {
		enc, err = morton.NewEncoder(b, bits)
	}
	if err != nil {
		return nil, err
	}
	codes := enc.EncodeCloud(c, nil)
	perm := morton.StdOrder(codes)
	out := c.Clone()
	if err := out.Permute(perm); err != nil {
		return nil, err
	}
	return &Structurized{Cloud: out, Perm: perm, Codes: morton.SortedCodes(codes, perm), Encoder: enc}, nil
}

// fuzzCloud builds a cloud of n points: Gaussian, or with repeats of earlier
// points (dup), one axis of zero extent (flat), a NaN or infinite coordinate
// now and then (special), featDim features and labels or none.
func fuzzCloud(seed int64, n, featDim int, labels, dup, flat, special bool) *geom.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := geom.NewCloud(n, featDim)
	for i := range c.Points {
		p := geom.Point3{X: rng.NormFloat64(), Y: 3 * rng.NormFloat64(), Z: rng.Float64()}
		if dup && i > 0 && rng.Intn(3) == 0 {
			p = c.Points[rng.Intn(i)]
		}
		if flat {
			p.Y = 0.5
		}
		if special && rng.Intn(50) == 0 {
			p.X = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		c.Points[i] = p
	}
	for i := range c.Feat {
		c.Feat[i] = float32(rng.NormFloat64())
	}
	if labels {
		c.Labels = make([]int32, n)
		for i := range c.Labels {
			c.Labels[i] = int32(rng.Intn(13))
		}
	}
	return c
}

// sameStructurized compares everything Structurize returns, bit for bit.
func sameStructurized(t *testing.T, what string, got, want *Structurized) {
	t.Helper()
	pointBits := func(ps []geom.Point3) []uint64 {
		out := make([]uint64, 0, 3*len(ps))
		for _, p := range ps {
			out = append(out, math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Z))
		}
		return out
	}
	featBits := func(fs []float32) []uint32 {
		out := make([]uint32, len(fs))
		for i, f := range fs {
			out[i] = math.Float32bits(f)
		}
		return out
	}
	switch {
	case !slices.Equal(got.Perm, want.Perm):
		t.Fatalf("%s: permutations differ", what)
	case !slices.Equal(pointBits(got.Cloud.Points), pointBits(want.Cloud.Points)):
		t.Fatalf("%s: points differ", what)
	case got.Cloud.FeatDim != want.Cloud.FeatDim || (got.Cloud.Feat == nil) != (want.Cloud.Feat == nil) ||
		!slices.Equal(featBits(got.Cloud.Feat), featBits(want.Cloud.Feat)):
		t.Fatalf("%s: features differ", what)
	case (got.Cloud.Labels == nil) != (want.Cloud.Labels == nil) || !slices.Equal(got.Cloud.Labels, want.Cloud.Labels):
		t.Fatalf("%s: labels differ", what)
	case !slices.Equal(got.Codes, want.Codes):
		t.Fatalf("%s: codes differ", what)
	case math.Float64bits(got.Encoder.R) != math.Float64bits(want.Encoder.R) || got.Encoder.BitsPerAxis != want.Encoder.BitsPerAxis ||
		!slices.Equal(pointBits([]geom.Point3{got.Encoder.Min}), pointBits([]geom.Point3{want.Encoder.Min})):
		t.Fatalf("%s: encoders differ: %+v, want %+v", what, *got.Encoder, *want.Encoder)
	}
}

// intoStructurized runs s.Into and copies its result out of s's buffers.
func intoStructurized(s *Structurizer, c *geom.Cloud, opts StructurizeOptions) (*Structurized, error) {
	perm := make([]int, c.Len())
	var labels []int32
	if c.Labels != nil {
		labels = make([]int32, c.Len())
	}
	pts, feat, err := s.Into(c, opts, perm, labels)
	if err != nil {
		return nil, err
	}
	enc := s.enc
	return &Structurized{
		Cloud:   &geom.Cloud{Points: slices.Clone(pts), Feat: slices.Clone(feat), FeatDim: c.FeatDim, Labels: labels},
		Perm:    perm,
		Codes:   morton.SortedCodes(s.codes, perm),
		Encoder: &enc,
	}, nil
}

// FuzzStructurizerMatchesStructurize checks a kept Structurizer, whose
// buffers the last call left dirty and at another size, against the oracle,
// and Structurize with it: duplicate points, a single point, a zero-extent
// axis, NaN and infinite coordinates, features or none, labels or none,
// every code width, an explicit grid size or box, and the comparison sort.
func FuzzStructurizerMatchesStructurize(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(29), uint8(0), uint8(0), 0.0)
	f.Add(int64(2), uint16(499), uint8(0), uint8(3), uint8(0b0000_0011), 0.0)
	f.Add(int64(3), uint16(257), uint8(60), uint8(1), uint8(0b0001_0101), 0.01)
	f.Add(int64(4), uint16(4999), uint8(29), uint8(2), uint8(0b0011_1010), 0.0)
	f.Add(int64(5), uint16(3000), uint8(9), uint8(0), uint8(0b0110_0110), 0.25)
	f.Add(int64(6), uint16(80), uint8(18), uint8(4), uint8(0b1000_1111), -1.0)
	f.Add(int64(7), uint16(2047), uint8(45), uint8(0), uint8(0b1111_1111), 1e-9)
	var s Structurizer
	f.Fuzz(func(t *testing.T, seed int64, n uint16, bits, featDim, flags uint8, grid float64) {
		c := fuzzCloud(seed, 1+int(n)%5000, int(featDim)%5, flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0)
		opts := StructurizeOptions{TotalBits: 3 + int(bits)%61, UseStdSort: flags&16 != 0}
		if flags&32 != 0 {
			opts.GridSize = grid
		}
		if flags&64 != 0 {
			opts.Bounds = &geom.AABB{Min: geom.Point3{X: -1, Y: -2, Z: 0.25}, Max: geom.Point3{X: 1, Y: 2, Z: 0.75}}
		}
		if flags&128 != 0 {
			opts.TotalBits = 0
		}
		want, wantErr := oracleStructurize(c, opts)
		// Dirty the kept buffers with a cloud of another size and shape.
		other := fuzzCloud(seed+1, 1+int(n)%397, 2, true, false, false, false)
		if _, err := intoStructurized(&s, other, StructurizeOptions{}); err != nil {
			t.Fatal(err)
		}
		got, err := intoStructurized(&s, c, opts)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, want %v", err, wantErr)
		}
		if err != nil {
			return
		}
		sameStructurized(t, "kept Structurizer", got, want)
		fresh, err := Structurize(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameStructurized(t, "Structurize", fresh, want)
	})
}

// TestStructurizerRejectsBadOutputs covers Into's checks of the caller's
// permutation and label buffers.
func TestStructurizerRejectsBadOutputs(t *testing.T) {
	c := fuzzCloud(1, 10, 0, true, false, false, false)
	var s Structurizer
	for name, bufs := range map[string]struct {
		perm   []int
		labels []int32
	}{
		"short permutation": {make([]int, 9), make([]int32, 10)},
		"no labels":         {make([]int, 10), nil},
		"short labels":      {make([]int, 10), make([]int32, 3)},
	} {
		if _, _, err := s.Into(c, StructurizeOptions{}, bufs.perm, bufs.labels); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	c.Labels = nil
	if _, _, err := s.Into(c, StructurizeOptions{}, make([]int, 10), make([]int32, 10)); err == nil {
		t.Error("labels for a cloud without: accepted")
	}
}
