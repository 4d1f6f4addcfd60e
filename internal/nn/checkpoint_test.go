package nn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ckptNet builds a small deterministic parameter set for checkpoint tests.
func ckptNet(seed int64) []*Param {
	return NewSharedMLP("c", []int{3, 4}, rand.New(rand.NewSource(seed))).Params()
}

func sameBits(t *testing.T, a, b []*Param) {
	t.Helper()
	for i, p := range a {
		q := b[i]
		for j := range p.Value.Data {
			if math.Float32bits(p.Value.Data[j]) != math.Float32bits(q.Value.Data[j]) {
				t.Fatalf("%s[%d]: %x != %x", p.Name, j, math.Float32bits(p.Value.Data[j]), math.Float32bits(q.Value.Data[j]))
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := ckptNet(1)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := WriteCheckpoint(path, src); err != nil {
		t.Fatal(err)
	}
	dst := ckptNet(2)
	if err := ReadCheckpoint(path, dst); err != nil {
		t.Fatal(err)
	}
	sameBits(t, src, dst)
	// No temp files may survive a successful write.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestCheckpointOverwriteIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	first := ckptNet(1)
	if err := WriteCheckpoint(path, first); err != nil {
		t.Fatal(err)
	}
	second := ckptNet(7)
	if err := WriteCheckpoint(path, second); err != nil {
		t.Fatal(err)
	}
	dst := ckptNet(2)
	if err := ReadCheckpoint(path, dst); err != nil {
		t.Fatal(err)
	}
	sameBits(t, second, dst)
}

func TestCheckpointWriteFailureKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	good := ckptNet(1)
	if err := WriteCheckpoint(path, good); err != nil {
		t.Fatal(err)
	}
	// A write into a nonexistent directory must fail loudly and leave the
	// previous checkpoint untouched.
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "model.ckpt")
	if err := WriteCheckpoint(bad, good); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	dst := ckptNet(2)
	if err := ReadCheckpoint(path, dst); err != nil {
		t.Fatal(err)
	}
	sameBits(t, good, dst)
}

// TestCheckpointBitFlipDetected is the exhaustive corruption property: every
// single-bit flip anywhere in a valid checkpoint must be rejected with a
// typed error (CRC-32 detects all 1-bit errors; header damage is caught by
// the magic/version/count validation, which also wraps ErrCheckpointCorrupt).
func TestCheckpointBitFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpointTo(&buf, ckptNet(1)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	flipped := make([]byte, len(valid))
	for bit := 0; bit < len(valid)*8; bit++ {
		copy(flipped, valid)
		flipped[bit/8] ^= 1 << (bit % 8)
		err := ReadCheckpointFrom(bytes.NewReader(flipped), ckptNet(2))
		if err == nil {
			t.Fatalf("bit flip at %d (byte %d) went undetected", bit, bit/8)
		}
		if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointTorn) {
			t.Fatalf("bit flip at %d: untyped error %v", bit, err)
		}
	}
}

// TestCheckpointTruncationDetected: every proper prefix of a valid checkpoint
// must be rejected with a typed error — the torn-write signature.
func TestCheckpointTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpointTo(&buf, ckptNet(1)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for n := 0; n < len(valid); n++ {
		err := ReadCheckpointFrom(bytes.NewReader(valid[:n]), ckptNet(2))
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(valid))
		}
		if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointTorn) {
			t.Fatalf("truncation to %d: untyped error %v", n, err)
		}
	}
	// Trailing garbage after the trailer is corruption too.
	err := ReadCheckpointFrom(bytes.NewReader(append(append([]byte{}, valid...), 0)), ckptNet(2))
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("trailing byte: got %v", err)
	}
}

// TestCheckpointPartialLoadNeverApplied: a checkpoint whose last parameter is
// corrupt must not modify any parameter of the destination network, even the
// ones whose records validated individually (all-or-nothing contract).
func TestCheckpointPartialLoadNeverApplied(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpointTo(&buf, ckptNet(1)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-6] ^= 0x10 // damage inside the final parameter/trailer region
	dst := ckptNet(2)
	before := ckptNet(2)
	if err := ReadCheckpointFrom(bytes.NewReader(data), dst); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	sameBits(t, before, dst)
}

func TestCheckpointWrongNetworkRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpointTo(&buf, ckptNet(1)); err != nil {
		t.Fatal(err)
	}
	other := NewSharedMLP("other", []int{3, 4}, rand.New(rand.NewSource(3))).Params()
	err := ReadCheckpointFrom(bytes.NewReader(buf.Bytes()), other)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("wrong-network load: got %v", err)
	}
}

// FuzzReadCheckpoint: the decoder must reject
// arbitrary bytes with a typed error, never a panic or unbounded allocation,
// and any stream it accepts must round-trip bit-exactly through
// WriteCheckpointTo∘ReadCheckpointFrom.
func FuzzReadCheckpoint(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCheckpointTo(&buf, ckptNet(1)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte{}, valid...))                // well-formed checkpoint
	f.Add(append([]byte{}, valid[:9]...))            // truncated after header
	f.Add(append([]byte{}, valid[:len(valid)-3]...)) // truncated inside the trailer
	bad := append([]byte{}, valid...)
	bad[0] = 'X'
	f.Add(bad) // bad magic
	ver := append([]byte{}, valid...)
	ver[4] = 9
	f.Add(ver) // unsupported version
	flip := append([]byte{}, valid...)
	flip[len(flip)/2] ^= 0x01
	f.Add(flip)           // mid-stream bit flip
	f.Add([]byte{})       // empty
	f.Add([]byte("EPCK")) // magic only

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := ckptNet(2)
		if err := ReadCheckpointFrom(bytes.NewReader(data), dst); err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointTorn) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteCheckpointTo(&out, dst); err != nil {
			t.Fatalf("re-encode of accepted checkpoint: %v", err)
		}
		dst2 := ckptNet(3)
		if err := ReadCheckpointFrom(bytes.NewReader(out.Bytes()), dst2); err != nil {
			t.Fatalf("re-decode of re-encoded checkpoint: %v", err)
		}
		for i, p := range dst {
			q := dst2[i]
			for j := range p.Value.Data {
				if math.Float32bits(p.Value.Data[j]) != math.Float32bits(q.Value.Data[j]) {
					t.Fatalf("round-trip changed %s[%d]: %x != %x",
						p.Name, j, math.Float32bits(p.Value.Data[j]), math.Float32bits(q.Value.Data[j]))
				}
			}
		}
	})
}
