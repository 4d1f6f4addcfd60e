package dataset

import (
	"math/rand"

	"repro/internal/geom"
)

// Classification is the ModelNet-stand-in: each item is one procedural shape
// with its family as the class label.
type Classification struct {
	Items  int
	Points int
	Noise  float64
	Skew   float64
	Seed   int64
}

// NewClassification builds the synthetic classification dataset with
// paper-comparable defaults (1 024 points per item, mirroring ModelNet40's
// per-batch point count in Table 1).
func NewClassification(items int, seed int64) *Classification {
	return &Classification{Items: items, Points: 1024, Noise: 0.02, Skew: 0.5, Seed: seed}
}

// Name implements Dataset.
func (d *Classification) Name() string { return "synthetic-modelnet" }

// Len implements Dataset.
func (d *Classification) Len() int { return d.Items }

// Classes implements Dataset.
func (d *Classification) Classes() int { return int(geom.NumShapeKinds) }

// At implements Dataset.
func (d *Classification) At(i int) (*Sample, error) {
	if err := checkIndex(i, d.Items, d.Name()); err != nil {
		return nil, err
	}
	kind := geom.ShapeKind(i % int(geom.NumShapeKinds))
	cloud := geom.GenerateShape(kind, geom.ShapeOptions{
		N:           d.Points,
		Noise:       d.Noise,
		DensitySkew: d.Skew,
		Seed:        d.Seed + int64(i),
	})
	return &Sample{Cloud: cloud, Label: int32(kind)}, nil
}

// PartSegmentation is the ShapeNet stand-in: composite objects whose parts
// carry distinct labels (e.g. a "rocket" = cylinder body + cone nose).
type PartSegmentation struct {
	Items  int
	Points int
	Noise  float64
	Seed   int64
}

// NewPartSegmentation builds the synthetic part-segmentation dataset
// (2 048 points per item, matching ShapeNet's per-batch count in Table 1).
func NewPartSegmentation(items int, seed int64) *PartSegmentation {
	return &PartSegmentation{Items: items, Points: 2048, Noise: 0.015, Seed: seed}
}

// Name implements Dataset.
func (d *PartSegmentation) Name() string { return "synthetic-shapenet" }

// Len implements Dataset.
func (d *PartSegmentation) Len() int { return d.Items }

// Part labels for the composite objects.
const (
	PartBody int32 = iota
	PartTop
	PartBase
	NumPartClasses
)

// Classes implements Dataset.
func (d *PartSegmentation) Classes() int { return int(NumPartClasses) }

// At implements Dataset.
func (d *PartSegmentation) At(i int) (*Sample, error) {
	if err := checkIndex(i, d.Items, d.Name()); err != nil {
		return nil, err
	}
	seed := d.Seed + int64(i)
	rng := rand.New(rand.NewSource(seed))
	variant := i % 3
	c := geom.NewCloud(0, 0)
	c.Labels = []int32{}
	bodyN := d.Points / 2
	topN := d.Points / 4
	baseN := d.Points - bodyN - topN
	addPart := func(kind geom.ShapeKind, n int, label int32, scale, dz float64) {
		part := geom.GenerateShape(kind, geom.ShapeOptions{N: n, Noise: d.Noise, DensitySkew: 0.4, Seed: rng.Int63()})
		for _, p := range part.Points {
			c.Points = append(c.Points, geom.Point3{X: p.X * scale, Y: p.Y * scale, Z: float64(p.Z*scale) + dz})
			c.Labels = append(c.Labels, label)
		}
	}
	switch variant {
	case 0: // rocket: cylinder body, cone nose, box fins
		addPart(geom.ShapeCylinder, bodyN, PartBody, 0.5, 0)
		addPart(geom.ShapeCone, topN, PartTop, 0.5, 1.0)
		addPart(geom.ShapeBox, baseN, PartBase, 0.3, -0.8)
	case 1: // lamp: pole, shade, base
		addPart(geom.ShapeCylinder, bodyN, PartBody, 0.15, 0)
		addPart(geom.ShapeShell, topN, PartTop, 0.6, 0.9)
		addPart(geom.ShapePlane, baseN, PartBase, 0.5, -0.6)
	default: // barbell: bar, two spheres
		addPart(geom.ShapeCylinder, bodyN, PartBody, 0.2, 0)
		addPart(geom.ShapeSphere, topN, PartTop, 0.45, 0.8)
		addPart(geom.ShapeSphere, baseN, PartBase, 0.45, -0.8)
	}
	return &Sample{Cloud: c, Label: -1}, nil
}

// SceneSegmentation is the S3DIS/ScanNet stand-in: synthetic indoor rooms
// with per-point semantic labels. Points controls the per-item point count
// (4 096 for the S3DIS-like setting, 8 192 for the ScanNet-like one, matching
// Table 1).
type SceneSegmentation struct {
	Items  int
	Points int
	Seed   int64
	Style  string // "s3dis" or "scannet": room-size statistics
	// Intensity attaches the one-channel reflectance feature (the RGB
	// stand-in); pair with the models' ExtraFeatDim = 1.
	Intensity bool
}

// NewSceneSegmentation builds the synthetic scene dataset.
func NewSceneSegmentation(items, points int, style string, seed int64) *SceneSegmentation {
	return &SceneSegmentation{Items: items, Points: points, Seed: seed, Style: style}
}

// Name implements Dataset.
func (d *SceneSegmentation) Name() string { return "synthetic-" + d.Style }

// Len implements Dataset.
func (d *SceneSegmentation) Len() int { return d.Items }

// Classes implements Dataset.
func (d *SceneSegmentation) Classes() int { return int(geom.NumSceneClasses) }

// At implements Dataset.
func (d *SceneSegmentation) At(i int) (*Sample, error) {
	if err := checkIndex(i, d.Items, d.Name()); err != nil {
		return nil, err
	}
	opts := geom.SceneOptions{N: d.Points, Seed: d.Seed + int64(i), Intensity: d.Intensity}
	if d.Style == "scannet" {
		// ScanNet scans are smaller, cluttered rooms.
		opts.RoomW, opts.RoomD, opts.RoomH = 4.5, 4, 2.8
		opts.Furniture = 8
	}
	cloud := geom.GenerateScene(opts)
	return &Sample{Cloud: cloud, Label: -1}, nil
}
