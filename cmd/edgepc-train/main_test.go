package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// Laptop-scale end-to-end run with -checkpoint: the command must leave a
// loadable crash-safe checkpoint whose parameters fit the exact network
// architecture it trained.
func TestRunTrainCheckpointSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "train.epck")
	if err := run("cls", 8, 32, 1, 4, 1, path); err != nil {
		t.Fatalf("train run: %v", err)
	}
	// Rebuild the same architecture the command trained and restore into it.
	ds := edgepc.NewClassificationDataset(8, 32, 1)
	w := edgepc.Workload{
		Arch: edgepc.ArchDGCNN, Task: edgepc.TaskClassification,
		Classes: ds.Classes(), K: 6, Batch: 32, Dataset: "ModelNet40", Points: 32,
	}
	net, err := edgepc.BuildNet(w, edgepc.SN, edgepc.Options{BaseWidth: 4, Seed: 1, Modules: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := edgepc.LoadCheckpoint(path, net); err != nil {
		t.Fatalf("restoring the command's checkpoint: %v", err)
	}
}

// A -checkpoint pointing into a missing directory must fail before any
// training time is spent, with an error naming the problem.
func TestRunTrainCheckpointBadDir(t *testing.T) {
	err := run("cls", 8, 32, 1, 4, 1, "/definitely/not/a/dir/ck.epck")
	if err == nil {
		t.Fatal("run accepted a checkpoint in a missing directory")
	}
	if !strings.Contains(err.Error(), "directory") {
		t.Fatalf("error %q does not explain the missing directory", err)
	}
}
