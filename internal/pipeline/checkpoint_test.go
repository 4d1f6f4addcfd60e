package pipeline

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
)

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	w := tinyWorkload()
	ref, err := Build(w, SN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveCheckpoint(path, ref); err != nil {
		t.Fatal(err)
	}
	got, err := RebuildReplicaFromCheckpoint(path, w, SN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rp, gp := ref.Params(), got.Params()
	if len(rp) != len(gp) || len(rp) == 0 {
		t.Fatalf("param count %d vs %d", len(rp), len(gp))
	}
	for i := range rp {
		if rp[i].Value == gp[i].Value {
			t.Fatalf("param %d (%s) aliases the reference: checkpoint restore must be private", i, rp[i].Name)
		}
		for j := range rp[i].Value.Data {
			if math.Float32bits(rp[i].Value.Data[j]) != math.Float32bits(gp[i].Value.Data[j]) {
				t.Fatalf("param %s[%d] differs after restore", rp[i].Name, j)
			}
		}
	}
	// The restored replica must actually serve.
	frame, err := Frame(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Forward(frame, &model.Trace{}, false); err != nil {
		t.Fatalf("restored replica forward: %v", err)
	}
}

func TestCheckpointRestoreDetectsCorruption(t *testing.T) {
	w := tinyWorkload()
	ref, err := Build(w, SN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveCheckpoint(path, ref); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bit flip mid-file: restore must fail with the typed corruption error.
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RebuildReplicaFromCheckpoint(path, w, SN, Options{}); !errors.Is(err, nn.ErrCheckpointCorrupt) && !errors.Is(err, nn.ErrCheckpointTorn) {
		t.Fatalf("corrupt checkpoint: got %v", err)
	}
	// Truncation — the torn-write signature — must be typed too.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RebuildReplicaFromCheckpoint(path, w, SN, Options{}); !errors.Is(err, nn.ErrCheckpointCorrupt) && !errors.Is(err, nn.ErrCheckpointTorn) {
		t.Fatalf("torn checkpoint: got %v", err)
	}
	// LoadCheckpoint's all-or-nothing contract: a failing load leaves the
	// destination net bit-identical.
	dst, err := Build(w, SN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]float32, 0, len(dst.Params()))
	for _, p := range dst.Params() {
		before = append(before, append([]float32{}, p.Value.Data...))
	}
	if err := LoadCheckpoint(path, dst); err == nil {
		t.Fatal("torn checkpoint accepted")
	}
	for i, p := range dst.Params() {
		for j := range p.Value.Data {
			if math.Float32bits(p.Value.Data[j]) != math.Float32bits(before[i][j]) {
				t.Fatalf("failed load modified %s[%d]", p.Name, j)
			}
		}
	}
}
