// Package compress implements a Morton-code point-cloud codec — the
// companion application of the paper's structurization insight (its §6.4
// cites the authors' MICRO'22 work on Morton-based edge PC compression
// as evidence that the Z-curve captures PC spatial locality efficiently).
//
// The codec quantizes points onto the same voxel grid the EdgePC encoder
// uses, sorts the Morton codes, and stores first-order deltas as varints:
// spatial locality makes consecutive sorted codes close, so deltas are
// small and varints short. Decoding reproduces voxel centers — a lossy
// round trip with per-axis error bounded by half the grid size.
//
// Layout (little-endian):
//
//	magic   [4]byte  "EPCZ"
//	version byte     1
//	bits    byte     bits per axis (1..21)
//	min     3×float64
//	grid    float64  voxel edge r
//	count   uvarint  number of points
//	deltas  count × uvarint (first value is the first code itself)
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/morton"
)

var magic = [4]byte{'E', 'P', 'C', 'Z'}

const version = 1

// Options configures encoding.
type Options struct {
	// BitsPerAxis sets the quantization resolution (default 10, matching
	// the paper's a = 32 pick: ⌊32/3⌋ bits per axis). Error per axis is
	// bounded by r/2 with r = maxdim / 2^bits.
	BitsPerAxis int
}

// ErrCorrupt reports undecodable input.
var ErrCorrupt = errors.New("compress: corrupt or truncated data")

// Encode compresses the cloud's geometry. Features and labels are not
// encoded (the codec is a geometry transport, as in the cited work).
func Encode(c *geom.Cloud, opts Options) ([]byte, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("compress: empty cloud")
	}
	bits := opts.BitsPerAxis
	if bits == 0 {
		bits = 10
	}
	if bits < 1 || bits > morton.MaxBitsPerAxis {
		return nil, fmt.Errorf("compress: bits per axis %d out of [1, %d]", bits, morton.MaxBitsPerAxis)
	}
	bounds := c.Bounds()
	enc, err := morton.NewEncoder(bounds, 3*bits)
	if err != nil {
		return nil, err
	}
	codes := enc.EncodeCloud(c, nil)
	perm := morton.Order(codes)
	sorted := morton.SortedCodes(codes, perm)

	out := make([]byte, 0, 4+1+1+4*8+binary.MaxVarintLen64*(c.Len()+1))
	out = append(out, magic[:]...)
	out = append(out, version, byte(bits))
	for _, v := range []float64{enc.Min.X, enc.Min.Y, enc.Min.Z, enc.R} {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	out = binary.AppendUvarint(out, uint64(c.Len()))
	prev := uint64(0)
	for _, code := range sorted {
		out = binary.AppendUvarint(out, code-prev)
		prev = code
	}
	return out, nil
}

// Decode reconstructs the voxel-center point cloud.
func Decode(data []byte) (*geom.Cloud, error) {
	if len(data) < 4+1+1+4*8+1 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != version {
		return nil, fmt.Errorf("compress: unsupported version %d", data[4])
	}
	bits := int(data[5])
	if bits < 1 || bits > morton.MaxBitsPerAxis {
		return nil, fmt.Errorf("%w: bits per axis %d", ErrCorrupt, bits)
	}
	off := 6
	fields := make([]float64, 4)
	for i := range fields {
		fields[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	min := geom.Point3{X: fields[0], Y: fields[1], Z: fields[2]}
	r := fields[3]
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("%w: grid size %v", ErrCorrupt, r)
	}
	count, n := binary.Uvarint(data[off:])
	// Each point needs at least one delta byte, so the declared count can
	// never legitimately exceed the remaining payload size — reject forged
	// headers before allocating anything.
	if n <= 0 || count == 0 || count > uint64(len(data)-off-n) {
		return nil, fmt.Errorf("%w: count", ErrCorrupt)
	}
	off += n

	cloud := geom.NewCloud(int(count), 0)
	code := uint64(0)
	maxCode := uint64(1)<<(3*uint(bits)) - 1
	for i := 0; i < int(count); i++ {
		delta, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: delta %d of %d", ErrCorrupt, i, count)
		}
		off += n
		code += delta
		if code > maxCode {
			return nil, fmt.Errorf("%w: code overflow at point %d", ErrCorrupt, i)
		}
		x, y, z := morton.Decode3(code)
		cloud.Points[i] = geom.Point3{
			X: min.X + float64((float64(x)+0.5)*r),
			Y: min.Y + float64((float64(y)+0.5)*r),
			Z: min.Z + float64((float64(z)+0.5)*r),
		}
	}
	return cloud, nil
}

// MaxError returns the worst-case reconstruction distance for a cloud with
// the given bounds at the given resolution: half the voxel diagonal.
func MaxError(bounds geom.AABB, bitsPerAxis int) float64 {
	r := bounds.MaxDim() / float64(uint64(1)<<uint(bitsPerAxis))
	return r * math.Sqrt(3) / 2
}

// RawSize returns the uncompressed geometry size used for ratio reporting:
// three float32 coordinates per point, the dense on-device layout.
func RawSize(n int) int { return n * 12 }
