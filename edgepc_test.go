package edgepc_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
)

func TestPublicAPIPipelineEndToEnd(t *testing.T) {
	// The full public surface in one pass: generate → structurize → sample
	// → search → build → run → price.
	cloud := edgepc.GenerateShape(edgepc.ShapeBlob, edgepc.ShapeOptions{N: 400, DensitySkew: 0.5, Seed: 1})
	s, err := edgepc.Structurize(cloud, edgepc.StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 400 {
		t.Fatalf("structurized %d points", s.Len())
	}
	fps, err := edgepc.SampleFPS(cloud, 40)
	if err != nil {
		t.Fatal(err)
	}
	morton, err := edgepc.SampleMorton(cloud, 40)
	if err != nil {
		t.Fatal(err)
	}
	fMean, _, err := edgepc.CoverageRadius(cloud.Points, fps)
	if err != nil {
		t.Fatal(err)
	}
	mMean, _, err := edgepc.CoverageRadius(cloud.Points, morton)
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 5 claim at metric level: Morton-uniform coverage is FPS-like
	// (allow generous slack at this tiny scale).
	if mMean > 2*fMean {
		t.Fatalf("morton coverage %v far worse than FPS %v", mMean, fMean)
	}

	pos := []int{0, 10, 100, 399}
	nbrs, err := edgepc.WindowNeighbors(s, pos, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != len(pos)*4 {
		t.Fatalf("window result length %d", len(nbrs))
	}

	w := edgepc.Workload{
		ID: "t", Dataset: "S3DIS", Points: 200, Batch: 2,
		Arch: edgepc.ArchPointNetPP, Task: edgepc.TaskSegmentation, Classes: 8, K: 4,
	}
	opts := edgepc.Options{BaseWidth: 4, Depth: 2, Seed: 1}
	net, err := edgepc.BuildNet(w, edgepc.SN, opts)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := edgepc.GenerateFrame(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	trace, rep, out, err := edgepc.RunFrame(net, frame, edgepc.JetsonAGXXavier(), edgepc.NewSimConfig(w, edgepc.SN, opts))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Records) == 0 || rep.Total <= 0 || out.Logits.Rows != frame.Len() {
		t.Fatal("pipeline run incomplete")
	}
}

func TestPublicAPIWorkloads(t *testing.T) {
	ws := edgepc.Workloads()
	if len(ws) != 6 {
		t.Fatalf("%d workloads", len(ws))
	}
	// The returned slice is a copy.
	ws[0].Points = 1
	w1, err := edgepc.WorkloadByID("W1")
	if err != nil {
		t.Fatal(err)
	}
	if w1.Points == 1 {
		t.Fatal("Workloads() exposed internal state")
	}
}

func TestPublicAPITrainTiny(t *testing.T) {
	ds := edgepc.NewClassificationDataset(8, 64, 5)
	w := edgepc.Workload{
		Arch: edgepc.ArchDGCNN, Task: edgepc.TaskClassification,
		Classes: ds.Classes(), K: 4,
	}
	net, err := edgepc.BuildNet(w, edgepc.Baseline, edgepc.Options{BaseWidth: 4, Modules: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	trainIdx, testIdx := edgepc.SplitDataset(ds.Len(), 0.25)
	res, err := edgepc.Train(net, ds, trainIdx, testIdx, edgepc.TrainConfig{Epochs: 2, LR: 1e-3, BatchSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainLoss) != 2 {
		t.Fatalf("loss history %v", res.TrainLoss)
	}
	acc, _, err := edgepc.Evaluate(net, ds, testIdx)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v", acc)
	}
}

func TestPublicAPIFileIO(t *testing.T) {
	dir := t.TempDir()
	cloud := edgepc.GenerateShape(edgepc.ShapeSphere, edgepc.ShapeOptions{N: 50, Seed: 3})
	for _, name := range []string{"c.off", "c.ply", "c.PLY"} {
		path := filepath.Join(dir, name)
		if err := edgepc.SaveCloud(path, cloud); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := edgepc.LoadCloud(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Len() != 50 {
			t.Fatalf("%s: %d points", name, back.Len())
		}
	}
	if err := edgepc.SaveCloud(filepath.Join(dir, "c.xyz"), cloud); err == nil {
		t.Fatal("unsupported extension: want error")
	}
	if _, err := edgepc.LoadCloud(filepath.Join(dir, "missing.off")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v", err)
	}
}

// TestPublicAPISaveLoadNet: a net saved with SaveCheckpoint and loaded into
// a differently seeded net of the same shape gives the saved net's logits,
// and a net of another width refuses the file.
func TestPublicAPISaveLoadNet(t *testing.T) {
	w := edgepc.Workload{
		Arch: edgepc.ArchDGCNN, Task: edgepc.TaskClassification, Classes: 3, K: 4,
	}
	opts := edgepc.Options{BaseWidth: 4, Modules: 2, Seed: 7}
	src, err := edgepc.BuildNet(w, edgepc.SN, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.epck")
	if err := edgepc.SaveCheckpoint(path, src); err != nil {
		t.Fatal(err)
	}
	dst, err := edgepc.BuildNet(w, edgepc.SN, edgepc.Options{BaseWidth: 4, Modules: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := edgepc.LoadCheckpoint(path, dst); err != nil {
		t.Fatal(err)
	}
	// Same weights → identical logits on the same cloud.
	cloud := edgepc.GenerateShape(edgepc.ShapeSphere, edgepc.ShapeOptions{N: 40, Seed: 1})
	a, err := src.Forward(cloud, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Forward(cloud, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Logits.Equal(b.Logits) {
		t.Fatal("loaded network disagrees with saved one")
	}
	// Mismatched architecture rejected.
	other, err := edgepc.BuildNet(w, edgepc.SN, edgepc.Options{BaseWidth: 8, Modules: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := edgepc.LoadCheckpoint(path, other); err == nil {
		t.Fatal("mismatched width: want error")
	}
}

func TestPublicAPICopyParamsAndAugment(t *testing.T) {
	w := edgepc.Workload{Arch: edgepc.ArchDGCNN, Task: edgepc.TaskClassification, Classes: 3, K: 4}
	a, err := edgepc.BuildNet(w, edgepc.Baseline, edgepc.Options{BaseWidth: 4, Modules: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := edgepc.BuildNet(w, edgepc.SN, edgepc.Options{BaseWidth: 4, Modules: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := edgepc.CopyParams(b, a); err != nil {
		t.Fatal(err)
	}
	aug := edgepc.DefaultAugment()
	cloud := edgepc.GenerateShape(edgepc.ShapeTorus, edgepc.ShapeOptions{N: 30, Seed: 3})
	out := aug(cloud, rand.New(rand.NewSource(1)))
	if out.Len() != cloud.Len() {
		t.Fatal("augment changed point count")
	}
}

func TestPublicAPITuneWindow(t *testing.T) {
	w := edgepc.Workload{
		ID: "t", Dataset: "S3DIS", Points: 512, Batch: 2,
		Arch: edgepc.ArchPointNetPP, Task: edgepc.TaskSegmentation, Classes: 8, K: 4,
	}
	win, lat, err := edgepc.TuneWindow(edgepc.JetsonAGXXavier(), w,
		edgepc.Options{BaseWidth: 4, Depth: 2, Seed: 1}, time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	if win < w.K || lat <= 0 {
		t.Fatalf("tuned window %d, latency %v", win, lat)
	}
}

func TestPublicAPIBallNeighbors(t *testing.T) {
	pts := []edgepc.Point3{{X: 0}, {X: 0.1}, {X: 5}}
	out, err := edgepc.BallNeighbors(pts, pts[:1], 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range out {
		if n == 2 {
			t.Fatal("ball query returned the far point")
		}
	}
}

func TestPublicAPIRemainingSurface(t *testing.T) {
	// Devices.
	for _, dev := range []*edgepc.Device{edgepc.JetsonAGXXavier(), edgepc.JetsonOrinNX(), edgepc.JetsonNano()} {
		if dev.Name == "" || dev.CUDAFLOPS <= 0 {
			t.Fatalf("bad device profile %+v", dev)
		}
	}
	// Vanilla PointNet control through the facade.
	net, err := edgepc.NewPointNetVanilla(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cloud := edgepc.GenerateShape(edgepc.ShapeBox, edgepc.ShapeOptions{N: 24, Seed: 2})
	out, err := net.Forward(cloud, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Logits.Rows != 1 || out.Logits.Cols != 4 {
		t.Fatalf("vanilla logits %dx%d", out.Logits.Rows, out.Logits.Cols)
	}
	// Datasets with intensity features.
	ds := edgepc.NewSceneDatasetIntensity(2, 128, "scannet", 3)
	s, err := ds.At(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cloud.FeatDim != 1 || len(s.Cloud.Feat) != s.Cloud.Len() {
		t.Fatal("intensity feature missing")
	}
	// Exact no-self reference.
	idx := []int{0, 1}
	exact, err := edgepc.KNNNeighborsExcludingSelf(s.Cloud.Points, idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 6 {
		t.Fatalf("no-self result length %d", len(exact))
	}
	// Compression error bound helper.
	if e := edgepc.CompressionMaxError(s.Cloud.Bounds(), 10); e <= 0 {
		t.Fatalf("error bound %v", e)
	}
	// Part segmentation dataset with custom points.
	pds := edgepc.NewPartSegmentationDataset(1, 96, 1)
	ps, err := pds.At(0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Cloud.Len() != 96 {
		t.Fatalf("part-seg points %d", ps.Cloud.Len())
	}
	// Normals, exact and window-approximate.
	sphere := edgepc.GenerateShape(edgepc.ShapeSphere, edgepc.ShapeOptions{N: 200, Seed: 4})
	exactN, err := edgepc.EstimateNormals(sphere.Points, 8)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := edgepc.Structurize(sphere, edgepc.StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approxN, err := edgepc.EstimateNormalsWindow(sst, 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(exactN) != 200 || len(approxN) != 200 {
		t.Fatalf("normals lengths %d/%d", len(exactN), len(approxN))
	}
}
