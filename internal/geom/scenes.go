package geom

import (
	"math"
	"math/rand"
)

// Indoor-scene synthesis: the stand-in for S3DIS and ScanNet. A scene is a
// room (floor, ceiling, four walls) populated with furniture primitives, each
// point labelled with its semantic class. Scanner-style density falloff with
// distance from a virtual sensor gives the uneven sampling the paper's
// experiments rely on.

// Semantic classes for the synthetic indoor scenes.
const (
	ClassFloor int32 = iota
	ClassCeiling
	ClassWall
	ClassTable
	ClassChair
	ClassSofa
	ClassShelf
	ClassClutter
	NumSceneClasses
)

var sceneClassNames = [...]string{
	"floor", "ceiling", "wall", "table", "chair", "sofa", "shelf", "clutter",
}

// SceneClassName returns the semantic class name for a label.
func SceneClassName(label int32) string {
	if label < 0 || int(label) >= len(sceneClassNames) {
		return "unknown"
	}
	return sceneClassNames[label]
}

// SceneOptions controls indoor-scene synthesis.
type SceneOptions struct {
	N         int     // total points in the scene
	RoomW     float64 // room width (m); default 6
	RoomD     float64 // room depth (m); default 5
	RoomH     float64 // room height (m); default 3
	Furniture int     // number of furniture pieces; default 6
	// Intensity attaches a one-channel per-point reflectance feature
	// (material-dependent base + noise), the stand-in for the RGB channels
	// real S3DIS scans carry.
	Intensity bool
	Seed      int64
}

func (o *SceneOptions) defaults() {
	if o.RoomW == 0 {
		o.RoomW = 6
	}
	if o.RoomD == 0 {
		o.RoomD = 5
	}
	if o.RoomH == 0 {
		o.RoomH = 3
	}
	if o.Furniture == 0 {
		o.Furniture = 6
	}
}

// GenerateScene synthesizes a labelled indoor scene with n points.
func GenerateScene(opts SceneOptions) *Cloud {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	c := NewCloud(0, 0)
	c.Labels = []int32{}

	// Budget: 45% structure (floor/ceiling/walls), 45% furniture, 10% clutter.
	structureN := opts.N * 45 / 100
	furnitureN := opts.N * 45 / 100
	clutterN := opts.N - structureN - furnitureN

	sensor := Point3{opts.RoomW / 2, opts.RoomD / 2, 1.5}

	addStructure(c, rng, opts, structureN, sensor)
	addFurniture(c, rng, opts, furnitureN, sensor)
	addClutter(c, rng, opts, clutterN)
	if opts.Intensity {
		attachIntensity(c, rng)
	}
	return c
}

// classReflectance is the material-dependent base intensity per semantic
// class (painted ceiling bright, upholstery dark).
var classReflectance = [NumSceneClasses]float32{
	ClassFloor:   0.75,
	ClassCeiling: 0.90,
	ClassWall:    0.60,
	ClassTable:   0.45,
	ClassChair:   0.35,
	ClassSofa:    0.25,
	ClassShelf:   0.50,
	ClassClutter: 0.15,
}

func attachIntensity(c *Cloud, rng *rand.Rand) {
	c.FeatDim = 1
	c.Feat = make([]float32, c.Len())
	for i, label := range c.Labels {
		v := classReflectance[label] + float32(float32(rng.NormFloat64())*0.05)
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		c.Feat[i] = v
	}
}

// densityKeep implements scanner-style density falloff: points far from the
// sensor are kept with lower probability, so near surfaces are oversampled.
func densityKeep(rng *rand.Rand, p, sensor Point3) bool {
	d := p.Dist(sensor)
	keep := 1.0 / (1.0 + float64(0.15*d*d))
	return rng.Float64() < keep
}

func appendLabeled(c *Cloud, p Point3, label int32) {
	c.Points = append(c.Points, p)
	c.Labels = append(c.Labels, label)
}

func addStructure(c *Cloud, rng *rand.Rand, opts SceneOptions, budget int, sensor Point3) {
	for len(c.Points) < budget {
		surf := rng.Intn(6)
		var p Point3
		var label int32
		u, v := rng.Float64(), rng.Float64()
		switch surf {
		case 0: // floor
			p, label = Point3{u * opts.RoomW, v * opts.RoomD, 0}, ClassFloor
		case 1: // ceiling
			p, label = Point3{u * opts.RoomW, v * opts.RoomD, opts.RoomH}, ClassCeiling
		case 2:
			p, label = Point3{0, u * opts.RoomD, v * opts.RoomH}, ClassWall
		case 3:
			p, label = Point3{opts.RoomW, u * opts.RoomD, v * opts.RoomH}, ClassWall
		case 4:
			p, label = Point3{u * opts.RoomW, 0, v * opts.RoomH}, ClassWall
		default:
			p, label = Point3{u * opts.RoomW, opts.RoomD, v * opts.RoomH}, ClassWall
		}
		if densityKeep(rng, p, sensor) {
			appendLabeled(c, p, label)
		}
	}
}

type furnitureSpec struct {
	label int32
	// size ranges (w, d, h)
	wMin, wMax, dMin, dMax, hMin, hMax float64
}

var furnitureSpecs = []furnitureSpec{
	{ClassTable, 0.8, 1.6, 0.6, 1.0, 0.7, 0.8},
	{ClassChair, 0.4, 0.5, 0.4, 0.5, 0.8, 1.0},
	{ClassSofa, 1.4, 2.2, 0.8, 1.0, 0.7, 0.9},
	{ClassShelf, 0.8, 1.2, 0.3, 0.4, 1.6, 2.2},
}

func addFurniture(c *Cloud, rng *rand.Rand, opts SceneOptions, budget int, sensor Point3) {
	start := len(c.Points)
	perPiece := budget / opts.Furniture
	for f := 0; f < opts.Furniture; f++ {
		spec := furnitureSpecs[rng.Intn(len(furnitureSpecs))]
		w := spec.wMin + float64(rng.Float64()*(spec.wMax-spec.wMin))
		d := spec.dMin + float64(rng.Float64()*(spec.dMax-spec.dMin))
		h := spec.hMin + float64(rng.Float64()*(spec.hMax-spec.hMin))
		ox := rng.Float64() * (opts.RoomW - w)
		oy := rng.Float64() * (opts.RoomD - d)
		count := 0
		for count < perPiece && len(c.Points)-start < budget {
			p := boxSurfacePoint(rng, ox, oy, 0, w, d, h)
			if densityKeep(rng, p, sensor) {
				appendLabeled(c, p, spec.label)
				count++
			}
		}
	}
	// Fill any rounding remainder with table points.
	for len(c.Points)-start < budget {
		appendLabeled(c, Point3{rng.Float64() * opts.RoomW, rng.Float64() * opts.RoomD, 0.75}, ClassTable)
	}
}

// boxSurfacePoint samples the surface of an axis-aligned box with origin
// (ox,oy,oz) and extents (w,d,h).
func boxSurfacePoint(rng *rand.Rand, ox, oy, oz, w, d, h float64) Point3 {
	// Choose a face weighted by area.
	areas := [6]float64{w * d, w * d, w * h, w * h, d * h, d * h}
	total := 0.0
	for _, a := range areas {
		total += a
	}
	pick := rng.Float64() * total
	face := 0
	for pick > areas[face] && face < 5 {
		pick -= areas[face]
		face++
	}
	u, v := rng.Float64(), rng.Float64()
	switch face {
	case 0:
		return Point3{ox + float64(u*w), oy + float64(v*d), oz}
	case 1:
		return Point3{ox + float64(u*w), oy + float64(v*d), oz + h}
	case 2:
		return Point3{ox + float64(u*w), oy, oz + float64(v*h)}
	case 3:
		return Point3{ox + float64(u*w), oy + d, oz + float64(v*h)}
	case 4:
		return Point3{ox, oy + float64(u*d), oz + float64(v*h)}
	default:
		return Point3{ox + w, oy + float64(u*d), oz + float64(v*h)}
	}
}

func addClutter(c *Cloud, rng *rand.Rand, opts SceneOptions, budget int) {
	for i := 0; i < budget; i++ {
		// Small dense clusters at random heights — books, lamps, bags.
		cx := float64(rng.Float64() * opts.RoomW)
		cy := float64(rng.Float64() * opts.RoomD)
		cz := float64(rng.Float64() * opts.RoomH * 0.6)
		p := Point3{
			cx + float64(rng.NormFloat64()*0.08),
			cy + float64(rng.NormFloat64()*0.08),
			cz + math.Abs(rng.NormFloat64()*0.08),
		}
		appendLabeled(c, p, ClassClutter)
	}
}
