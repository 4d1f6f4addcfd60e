// Command edgepc-train reproduces the paper's retraining procedure (§5.3,
// Fig. 14): it trains a baseline network on a synthetic dataset, evaluates
// the EdgePC approximations with and without retraining, and prints the
// accuracy comparison.
//
// Usage:
//
//	edgepc-train [-task cls|partseg] [-items N] [-points N] [-epochs N] [-seed N]
//	edgepc-train -checkpoint ckpt.epck      # crash-safe per-epoch checkpoints
//
// -checkpoint writes a crash-safe checkpoint (versioned, checksummed,
// atomically renamed into place) after every retraining epoch and again
// after the final epoch, so a killed run always leaves a loadable file —
// either the previous epoch's or the new one, never a torn mix.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
)

func main() {
	task := flag.String("task", "cls", "task: cls (DGCNN classification) or partseg (PointNet++ part segmentation)")
	items := flag.Int("items", 80, "dataset size")
	points := flag.Int("points", 256, "points per cloud")
	epochs := flag.Int("epochs", 20, "training epochs")
	width := flag.Int("width", 12, "network base width")
	seed := flag.Int64("seed", 1, "seed")
	checkpoint := flag.String("checkpoint", "", "write a crash-safe checkpoint here after every retraining epoch")
	flag.Parse()

	if err := run(*task, *items, *points, *epochs, *width, *seed, *checkpoint); err != nil {
		fmt.Fprintln(os.Stderr, "edgepc-train:", err)
		os.Exit(1)
	}
}

func run(task string, items, points, epochs, width int, seed int64, checkpoint string) error {
	if checkpoint != "" {
		// Fail a bad -checkpoint before any training time is spent: the
		// atomic write needs the directory to exist.
		dir := filepath.Dir(checkpoint)
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return fmt.Errorf("-checkpoint %q: directory %q does not exist or is not a directory", checkpoint, dir)
		}
	}
	var ds edgepc.Dataset
	var w edgepc.Workload
	opts := edgepc.Options{BaseWidth: width, Seed: seed}
	switch task {
	case "cls":
		ds = edgepc.NewClassificationDataset(items, points, seed)
		w = edgepc.Workload{
			Arch: edgepc.ArchDGCNN, Task: edgepc.TaskClassification,
			Classes: ds.Classes(), K: 6, Batch: 32, Dataset: "ModelNet40",
		}
		opts.Modules = 3
	case "partseg":
		ds = edgepc.NewPartSegmentationDataset(items, points, seed)
		w = edgepc.Workload{
			Arch: edgepc.ArchPointNetPP, Task: edgepc.TaskSegmentation,
			Classes: ds.Classes(), K: 6, Batch: 32, Dataset: "ShapeNet",
		}
		opts.Depth = 3
	default:
		return fmt.Errorf("unknown -task %q", task)
	}
	w.Points = points
	trainIdx, testIdx := edgepc.SplitDataset(ds.Len(), 0.2)
	tc := edgepc.TrainConfig{
		Epochs: epochs, LR: 2e-3, BatchSize: 4, Seed: seed,
		Progress: func(epoch int, loss, acc float64) {
			fmt.Printf("  epoch %2d  train loss %.4f  test acc %.3f\n", epoch, loss, acc)
		},
	}

	fmt.Printf("=== baseline (%s, %d items, %d points) ===\n", task, items, points)
	baseNet, err := edgepc.BuildNet(w, edgepc.Baseline, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	baseRes, err := edgepc.Train(baseNet, ds, trainIdx, testIdx, tc)
	if err != nil {
		return err
	}
	fmt.Printf("baseline accuracy %.3f (mIoU %.3f) in %v\n\n", baseRes.TestAcc, baseRes.TestIoU, time.Since(start).Round(time.Second))

	fmt.Println("=== EdgePC (S+N), warm-started from baseline, retrained with approximations in the loop ===")
	edgeNet, err := edgepc.BuildNet(w, edgepc.SN, opts)
	if err != nil {
		return err
	}
	if err := edgepc.CopyParams(edgeNet, baseNet); err != nil {
		return err
	}
	naiveAcc, _, err := edgepc.Evaluate(edgeNet, ds, testIdx)
	if err != nil {
		return err
	}
	fmt.Printf("before retraining (baseline weights + approximations): accuracy %.3f\n", naiveAcc)
	if checkpoint != "" {
		// Per-epoch crash-safe checkpoints: a kill at any instant leaves
		// either the previous epoch's file or the new one, never a torn mix.
		inner := tc.Progress
		tc.Progress = func(epoch int, loss, acc float64) {
			inner(epoch, loss, acc)
			if err := edgepc.SaveCheckpoint(checkpoint, edgeNet); err != nil {
				fmt.Fprintf(os.Stderr, "  checkpoint (epoch %d): %v\n", epoch, err)
			}
		}
	}
	edgeRes, err := edgepc.Train(edgeNet, ds, trainIdx, testIdx, tc)
	if err != nil {
		return err
	}
	if checkpoint != "" {
		if err := edgepc.SaveCheckpoint(checkpoint, edgeNet); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		fmt.Printf("checkpoint written to %s\n", checkpoint)
	}
	fmt.Printf("EdgePC accuracy %.3f (mIoU %.3f)\n", edgeRes.TestAcc, edgeRes.TestIoU)
	fmt.Printf("accuracy drop vs baseline: %.1f%% (paper: within 2%% after retraining)\n",
		100*(baseRes.TestAcc-edgeRes.TestAcc))
	return nil
}
