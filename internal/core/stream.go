package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/morton"
)

// Streamer structurizes a sequence of frames that share a reference volume —
// the paper's streaming settings (LiDAR at 10–30 Hz, AR/VR volumetric video),
// where per-frame bounding-box computation would make codes incomparable
// across frames and per-frame allocation would churn memory on a small
// device.
//
// The encoder is fixed at construction (reference bounds + code width); the
// code buffer and permutation scratch are reused across frames. Points
// outside the reference volume clamp to its boundary voxels, so occasional
// stragglers degrade gracefully instead of failing the frame.
type Streamer struct {
	enc   *morton.Encoder
	codes []uint64
}

// NewStreamer builds a streamer for frames inside bounds using totalBits
// (0 = the default 32-bit codes).
func NewStreamer(bounds geom.AABB, totalBits int) (*Streamer, error) {
	if !bounds.IsValid() {
		return nil, fmt.Errorf("core: streamer needs a valid reference bounding box")
	}
	if totalBits == 0 {
		totalBits = morton.DefaultTotalBits
	}
	enc, err := morton.NewEncoder(bounds, totalBits)
	if err != nil {
		return nil, err
	}
	return &Streamer{enc: enc}, nil
}

// Encoder exposes the shared encoder (e.g. to code query points against
// streamed frames).
func (st *Streamer) Encoder() *morton.Encoder { return st.enc }

// Structurize Morton-orders one frame in place (unlike the one-shot
// Structurize, which copies): the cloud's own storage is permuted, and the
// returned view shares it. Codes and permutation buffers are reused across
// calls, so the steady state allocates only the per-frame permutation the
// caller receives.
func (st *Streamer) Structurize(frame *geom.Cloud) (*Structurized, error) {
	if err := frame.Validate(); err != nil {
		return nil, err
	}
	if frame.Len() == 0 {
		return nil, fmt.Errorf("core: cannot structurize empty frame")
	}
	st.codes = st.enc.EncodeCloud(frame, st.codes)
	perm := morton.Order(st.codes)
	if err := frame.Permute(perm); err != nil {
		return nil, err
	}
	return &Structurized{
		Cloud:   frame,
		Perm:    perm,
		Codes:   morton.SortedCodes(st.codes, perm),
		Encoder: st.enc,
	}, nil
}
