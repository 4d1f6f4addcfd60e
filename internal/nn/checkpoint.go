package nn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Crash-safe checkpoints, the one weights format: trained models survive
// process restarts (train once with cmd/edgepc-train, deploy into the
// inference pipeline), and a checkpoint also survives a torn write (process
// or machine dies mid-write, leaving a prefix on disk) and silent byte
// corruption (bad sector, truncated copy, bit rot). Format (little-endian):
//
//	magic   [4]byte "EPCK"
//	version byte    1
//	count   uvarint
//	per parameter:
//	  nameLen uvarint, name bytes
//	  rows, cols uvarint
//	  rows×cols float32 (IEEE-754 bits, little-endian)
//	  crc32   uint32 — CRC-32 (IEEE) of this parameter's encoded bytes
//	trailer:
//	  crc32   uint32 — CRC-32 (IEEE) of every preceding byte
//
// The per-parameter checksums localize damage ("which tensor is bad"), the
// whole-file checksum catches anything between records, and CRC-32 detects
// every single-bit flip by construction. The file wrappers write through a
// temp file, fsync, and rename, so a reader only ever observes the previous
// checkpoint or the complete new one — never a prefix.

var checkpointMagic = [4]byte{'E', 'P', 'C', 'K'}

const checkpointVersion = 1

// Checkpoint errors. Both wrap every decode failure so callers can treat
// "restore from an older snapshot" uniformly with errors.Is.
var (
	// ErrCheckpointCorrupt reports a checkpoint whose bytes fail validation:
	// a checksum mismatch, a malformed header, or a stream that does not
	// match the network it is being loaded into.
	ErrCheckpointCorrupt = errors.New("nn: checkpoint corrupt")
	// ErrCheckpointTorn reports a checkpoint that ends mid-structure — the
	// signature of an interrupted write that bypassed the atomic rename
	// discipline (or a truncated copy).
	ErrCheckpointTorn = errors.New("nn: checkpoint torn (truncated)")
)

// WriteCheckpointTo encodes the parameters' values as a checkpoint stream.
// Most callers want WriteCheckpoint, which adds the temp-file+rename
// discipline; the io.Writer form exists for tests and in-memory use.
func WriteCheckpointTo(w io.Writer, params []*Param) error {
	bw := bufio.NewWriter(w)
	fileCRC := crc32.NewIEEE()
	out := io.MultiWriter(bw, fileCRC)
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(dst io.Writer, v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := dst.Write(scratch[:n])
		return err
	}
	if _, err := out.Write(checkpointMagic[:]); err != nil {
		return err
	}
	if _, err := out.Write([]byte{checkpointVersion}); err != nil {
		return err
	}
	if err := writeUvarint(out, uint64(len(params))); err != nil {
		return err
	}
	var crcb [4]byte
	for _, p := range params {
		paramCRC := crc32.NewIEEE()
		rec := io.MultiWriter(out, paramCRC)
		if err := writeUvarint(rec, uint64(len(p.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(rec, p.Name); err != nil {
			return err
		}
		if err := writeUvarint(rec, uint64(p.Value.Rows)); err != nil {
			return err
		}
		if err := writeUvarint(rec, uint64(p.Value.Cols)); err != nil {
			return err
		}
		var b [4]byte
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			if _, err := rec.Write(b[:]); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint32(crcb[:], paramCRC.Sum32())
		if _, err := out.Write(crcb[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(crcb[:], fileCRC.Sum32())
	if _, err := bw.Write(crcb[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// crcReader feeds every byte it yields through the file checksum and,
// when inside a parameter record, the per-parameter checksum too. It
// implements io.ByteReader so uvarint decoding checksums correctly.
type crcReader struct {
	r     *bufio.Reader
	file  hash.Hash32
	param hash.Hash32 // nil outside a parameter record
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	one := [1]byte{b}
	c.file.Write(one[:])
	if c.param != nil {
		c.param.Write(one[:])
	}
	return b, nil
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.file.Write(p[:n])
		if c.param != nil {
			c.param.Write(p[:n])
		}
	}
	return n, err
}

// ReadCheckpointFrom decodes a checkpoint stream into params, verifying the
// per-parameter and whole-file checksums and that names and shapes match the
// network in order. The load is all-or-nothing: params are only written
// after the entire stream — trailer included — has validated, so a corrupt
// or torn checkpoint never leaves the network half-restored. Every failure
// wraps ErrCheckpointCorrupt or ErrCheckpointTorn.
func ReadCheckpointFrom(r io.Reader, params []*Param) error {
	cr := &crcReader{r: bufio.NewReader(r), file: crc32.NewIEEE()}
	torn := func(what string, err error) error {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: %s", ErrCheckpointTorn, what)
		}
		return fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, what, err)
	}
	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return torn("magic", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, magic[:])
	}
	version, err := cr.ReadByte()
	if err != nil {
		return torn("version", err)
	}
	if version != checkpointVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, version)
	}
	count, err := binary.ReadUvarint(cr)
	if err != nil {
		return torn("count", err)
	}
	if int(count) != len(params) {
		return fmt.Errorf("%w: checkpoint has %d parameters, network has %d", ErrCheckpointCorrupt, count, len(params))
	}
	// Decode into scratch first; install only after the trailer validates.
	restored := make([][]float32, len(params))
	for pi, p := range params {
		cr.param = crc32.NewIEEE()
		nameLen, err := binary.ReadUvarint(cr)
		if err != nil || nameLen > 4096 {
			return torn("name length", errOr(err))
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, name); err != nil {
			return torn("name", err)
		}
		rows, err := binary.ReadUvarint(cr)
		if err != nil {
			return torn("rows", err)
		}
		cols, err := binary.ReadUvarint(cr)
		if err != nil {
			return torn("cols", err)
		}
		// Shape gate before the data read bounds the allocation by the
		// network's own tensor sizes, whatever the stream claims.
		if string(name) != p.Name {
			return fmt.Errorf("%w: parameter %q in checkpoint, %q in network", ErrCheckpointCorrupt, name, p.Name)
		}
		if int(rows) != p.Value.Rows || int(cols) != p.Value.Cols {
			return fmt.Errorf("%w: %s is %dx%d in checkpoint, %dx%d in network",
				ErrCheckpointCorrupt, p.Name, rows, cols, p.Value.Rows, p.Value.Cols)
		}
		buf := make([]byte, 4*rows*cols)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return torn(p.Name+" data", err)
		}
		want := cr.param.Sum32()
		cr.param = nil
		var crcb [4]byte
		if _, err := io.ReadFull(cr, crcb[:]); err != nil {
			return torn(p.Name+" checksum", err)
		}
		if got := binary.LittleEndian.Uint32(crcb[:]); got != want {
			return fmt.Errorf("%w: %s checksum mismatch (stored %08x, computed %08x)", ErrCheckpointCorrupt, p.Name, got, want)
		}
		vals := make([]float32, rows*cols)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		restored[pi] = vals
	}
	want := cr.file.Sum32()
	var crcb [4]byte
	if _, err := io.ReadFull(cr.r, crcb[:]); err != nil {
		return torn("trailer", err)
	}
	if got := binary.LittleEndian.Uint32(crcb[:]); got != want {
		return fmt.Errorf("%w: file checksum mismatch (stored %08x, computed %08x)", ErrCheckpointCorrupt, got, want)
	}
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: trailing bytes after trailer", ErrCheckpointCorrupt)
	}
	for pi, p := range params {
		copy(p.Value.Data, restored[pi])
	}
	return nil
}

// errOr turns a nil error from a bounds check into a descriptive one so the
// torn/corrupt classifier always has something to wrap.
func errOr(err error) error {
	if err != nil {
		return err
	}
	return errors.New("out of bounds")
}

// WriteCheckpoint writes the parameters to path with the crash-safe
// discipline: encode into a temp file in the same directory, fsync it,
// rename it over path, then fsync the directory (best effort). A crash at
// any point leaves either the previous checkpoint or the complete new one.
func WriteCheckpoint(path string, params []*Param) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("nn: checkpoint %s: %w", path, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = WriteCheckpointTo(f, params); err != nil {
		return fmt.Errorf("nn: checkpoint %s: %w", path, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("nn: checkpoint %s: sync: %w", path, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("nn: checkpoint %s: close: %w", path, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("nn: checkpoint %s: rename: %w", path, err)
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync() // directory entry durability; best effort by design
		d.Close()
	}
	return nil
}

// ReadCheckpoint loads the checkpoint at path into params (all-or-nothing;
// see ReadCheckpointFrom for the validation and error contract).
func ReadCheckpoint(path string, params []*Param) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("nn: checkpoint %s: %w", path, err)
	}
	defer f.Close()
	if err := ReadCheckpointFrom(f, params); err != nil {
		return fmt.Errorf("nn: checkpoint %s: %w", path, err)
	}
	return nil
}
