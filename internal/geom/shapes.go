package geom

import (
	"math"
	"math/rand"
)

// The procedural generators below stand in for the paper's datasets
// (ModelNet40, ShapeNet, S3DIS, ScanNet, Stanford Bunny). Each produces a
// surface sampled with deliberately *uneven* density — the property that
// makes raw uniform index sampling fail (Fig. 4b) and that the Morton
// structurization repairs (Fig. 4c).

// ShapeKind enumerates the procedural shape families. They double as class
// labels in the synthetic classification dataset.
type ShapeKind int

// Shape families. The order is the class-label order of the synthetic
// classification dataset.
const (
	ShapeSphere ShapeKind = iota
	ShapeTorus
	ShapeBox
	ShapeCylinder
	ShapeCone
	ShapePlane
	ShapeHelix
	ShapeBlob
	ShapeCross
	ShapeShell
	NumShapeKinds
)

var shapeNames = [...]string{
	"sphere", "torus", "box", "cylinder", "cone",
	"plane", "helix", "blob", "cross", "shell",
}

// String returns the shape family name.
func (k ShapeKind) String() string {
	if k < 0 || int(k) >= len(shapeNames) {
		return "unknown"
	}
	return shapeNames[k]
}

// ShapeOptions controls procedural shape synthesis.
type ShapeOptions struct {
	N           int     // number of points
	Noise       float64 // Gaussian surface noise stddev (fraction of unit size)
	DensitySkew float64 // 0 = even sampling; 1 = strongly clustered sampling
	Seed        int64
}

// GenerateShape samples n points from the surface of the given shape family.
// DensitySkew warps the surface parameterization so that some regions are
// sampled much more densely than others, mimicking real scans.
func GenerateShape(kind ShapeKind, opts ShapeOptions) *Cloud {
	rng := rand.New(rand.NewSource(opts.Seed))
	c := NewCloud(opts.N, 0)
	for i := 0; i < opts.N; i++ {
		u, v := warp(float64(rng.Float64()), opts.DensitySkew), float64(rng.Float64())
		var p Point3
		switch kind {
		case ShapeSphere:
			p = spherePoint(u, v)
		case ShapeTorus:
			p = torusPoint(u, v, 0.35)
		case ShapeBox:
			p = boxPoint(rng)
		case ShapeCylinder:
			p = cylinderPoint(u, v)
		case ShapeCone:
			p = conePoint(u, v)
		case ShapePlane:
			p = Point3{u*2 - 1, v*2 - 1, 0}
		case ShapeHelix:
			p = helixPoint(u, v)
		case ShapeBlob:
			p = blobPoint(u, v, 3, 0.3)
		case ShapeCross:
			p = crossPoint(rng)
		case ShapeShell:
			p = shellPoint(u, v)
		default:
			p = spherePoint(u, v)
		}
		if opts.Noise > 0 {
			p.X += float64(rng.NormFloat64() * opts.Noise)
			p.Y += float64(rng.NormFloat64() * opts.Noise)
			p.Z += float64(rng.NormFloat64() * opts.Noise)
		}
		c.Points[i] = p
	}
	return c
}

// warp skews a uniform parameter toward 0 so that low-parameter regions of
// the surface receive disproportionately many samples.
func warp(u, skew float64) float64 {
	if skew <= 0 {
		return u
	}
	return math.Pow(u, 1+float64(3*skew))
}

func spherePoint(u, v float64) Point3 {
	theta := 2 * math.Pi * u
	phi := math.Acos(2*v - 1)
	return Point3{
		math.Sin(phi) * math.Cos(theta),
		math.Sin(phi) * math.Sin(theta),
		math.Cos(phi),
	}
}

func torusPoint(u, v, minor float64) Point3 {
	theta := 2 * math.Pi * u
	phi := 2 * math.Pi * v
	r := 1 + float64(minor*math.Cos(phi))
	return Point3{r * math.Cos(theta), r * math.Sin(theta), minor * math.Sin(phi)}
}

func boxPoint(rng *rand.Rand) Point3 {
	// Pick a face, then a point on it.
	face := rng.Intn(6)
	a, b := float64(rng.Float64())*2-1, float64(rng.Float64())*2-1
	switch face {
	case 0:
		return Point3{1, a, b}
	case 1:
		return Point3{-1, a, b}
	case 2:
		return Point3{a, 1, b}
	case 3:
		return Point3{a, -1, b}
	case 4:
		return Point3{a, b, 1}
	default:
		return Point3{a, b, -1}
	}
}

func cylinderPoint(u, v float64) Point3 {
	theta := 2 * math.Pi * u
	return Point3{math.Cos(theta), math.Sin(theta), v*2 - 1}
}

func conePoint(u, v float64) Point3 {
	theta := 2 * math.Pi * u
	r := 1 - v
	return Point3{r * math.Cos(theta), r * math.Sin(theta), v*2 - 1}
}

func helixPoint(u, v float64) Point3 {
	t := u * 4 * math.Pi
	r := 0.15
	// Tube around a helical spine.
	phi := 2 * math.Pi * v
	cx, cy := math.Cos(t), math.Sin(t)
	return Point3{
		cx + float64(r*math.Cos(phi)*cx),
		cy + float64(r*math.Cos(phi)*cy),
		t/(2*math.Pi) - 1 + float64(r*math.Sin(phi)),
	}
}

// blobPoint samples a lobed, organic closed surface (a sphere whose radius is
// modulated by spherical harmonics-like lobes). With lobes=3 it reads as a
// lumpy organic model — our stand-in for scanned organic meshes like the
// Stanford Bunny.
func blobPoint(u, v float64, lobes int, depth float64) Point3 {
	theta := 2 * math.Pi * u
	phi := math.Acos(2*v - 1)
	r := 1 + float64(depth*math.Sin(float64(lobes)*theta)*math.Sin(float64(lobes)*phi))
	return Point3{
		r * math.Sin(phi) * math.Cos(theta),
		r * math.Sin(phi) * math.Sin(theta),
		r * math.Cos(phi),
	}
}

func crossPoint(rng *rand.Rand) Point3 {
	// Two perpendicular slabs.
	a, b := float64(rng.Float64())*2-1, float64(rng.Float64()*0.4)-0.2
	if rng.Intn(2) == 0 {
		return Point3{a, b, float64(rng.Float64()*0.4) - 0.2}
	}
	return Point3{b, a, float64(rng.Float64()*0.4) - 0.2}
}

func shellPoint(u, v float64) Point3 {
	// Half-open spherical shell (like a bowl).
	theta := 2 * math.Pi * u
	phi := math.Acos(v) // upper hemisphere only
	return Point3{
		math.Sin(phi) * math.Cos(theta),
		math.Sin(phi) * math.Sin(theta),
		math.Cos(phi) - 0.5,
	}
}

// SyntheticBunny generates an organic, unevenly sampled model with the same
// point count as the Stanford Bunny (40 256 points). It substitutes for the
// Bunny in the Fig. 5 sampling-quality experiment: what that experiment needs
// is a curved organic surface with strong density variation, which the lobed
// blob with density skew provides.
func SyntheticBunny(seed int64) *Cloud {
	const bunnyPoints = 40256
	body := GenerateShape(ShapeBlob, ShapeOptions{N: bunnyPoints * 3 / 4, Noise: 0.01, DensitySkew: 0.8, Seed: seed})
	// "Ears": two elongated lobes on top, densely sampled (scanners
	// oversample small features).
	ears := GenerateShape(ShapeCylinder, ShapeOptions{N: bunnyPoints / 4, Noise: 0.01, DensitySkew: 0.2, Seed: seed + 1})
	rng := rand.New(rand.NewSource(seed + 2))
	for i := range ears.Points {
		p := ears.Points[i]
		side := 1.0
		if rng.Intn(2) == 0 {
			side = -1.0
		}
		ears.Points[i] = Point3{float64(p.X*0.15) + float64(side*0.35), p.Y * 0.15, float64(p.Z*0.5) + 1.2}
	}
	out := NewCloud(0, 0)
	out.Points = append(out.Points, body.Points...)
	out.Points = append(out.Points, ears.Points...)
	return out
}
