package geom

import (
	"math"
	"math/rand"
)

// Training-time geometric augmentation — the standard point-cloud recipe
// (random Z rotation, anisotropic scale, Gaussian jitter) used when
// retraining the networks. Augmentation matters doubly under EdgePC: the
// Morton grid is axis-aligned, so rotations change which points share voxels
// and teach the network not to overfit one structurization.

// RotateZ rotates the cloud in place around the Z axis by angle radians.
func (c *Cloud) RotateZ(angle float64) {
	s, cos := math.Sin(angle), math.Cos(angle)
	for i, p := range c.Points {
		c.Points[i] = Point3{
			X: float64(p.X*cos) - float64(p.Y*s),
			Y: float64(p.X*s) + float64(p.Y*cos),
			Z: p.Z,
		}
	}
}

// Scale scales the cloud in place about the origin.
func (c *Cloud) Scale(sx, sy, sz float64) {
	for i, p := range c.Points {
		c.Points[i] = Point3{X: p.X * sx, Y: p.Y * sy, Z: p.Z * sz}
	}
}

// Translate shifts the cloud in place.
func (c *Cloud) Translate(d Point3) {
	for i, p := range c.Points {
		c.Points[i] = p.Add(d)
	}
}

// Jitter adds independent Gaussian noise with the given standard deviation
// to every coordinate, clipped at ±3σ (the PointNet recipe).
func (c *Cloud) Jitter(sigma float64, rng *rand.Rand) {
	if sigma <= 0 {
		return
	}
	clip := 3 * sigma
	n := func() float64 {
		v := rng.NormFloat64() * sigma
		if v > clip {
			return clip
		}
		if v < -clip {
			return -clip
		}
		return v
	}
	for i, p := range c.Points {
		c.Points[i] = Point3{X: p.X + n(), Y: p.Y + n(), Z: p.Z + n()}
	}
}

// AugmentOptions parameterizes DefaultAugment.
type AugmentOptions struct {
	RotateZ     bool    // random rotation in [0, 2π)
	ScaleLo     float64 // uniform scale range (0 disables; typical 0.8–1.25)
	ScaleHi     float64
	JitterSigma float64 // Gaussian jitter stddev (typical 0.01 of unit size)
}

// DefaultAugmentOptions returns the standard recipe.
func DefaultAugmentOptions() AugmentOptions {
	return AugmentOptions{RotateZ: true, ScaleLo: 0.8, ScaleHi: 1.25, JitterSigma: 0.01}
}

// Augment returns an augmented deep copy of the cloud.
func Augment(c *Cloud, opts AugmentOptions, rng *rand.Rand) *Cloud {
	out := c.Clone()
	if opts.RotateZ {
		out.RotateZ(float64(rng.Float64()) * 2 * math.Pi)
	}
	if opts.ScaleHi > opts.ScaleLo && opts.ScaleLo > 0 {
		s := opts.ScaleLo + float64(rng.Float64()*(opts.ScaleHi-opts.ScaleLo))
		out.Scale(s, s, s)
	}
	out.Jitter(opts.JitterSigma, rng)
	return out
}
