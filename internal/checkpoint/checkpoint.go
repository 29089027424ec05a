// Package checkpoint saves and restores simulation state. The paper's
// GPU-resident scenario assumes "a computation might run for hours between
// CPU-GPU checkpoints" (§IV-E); this package supplies the checkpoints: a
// compact self-describing binary format holding the problem description,
// the simulated time already integrated, and the full field, written so a
// resumed run continues bit-for-bit where the original stopped.
//
// Format: the magic "ADVCKPT2", then a run of 64-bit little-endian words:
//
//	nx ny nz int64 | cx cy cz nu t0 float64 | steps-done int64
//	| fingerprint string | options string
//	| nx*ny*nz float64 field values, one z-plane at a time, x fastest
//	| checksum: the xor of every word before it
//
// A string is its byte length, then its bytes zero-padded to a whole word.
// Save writes the field through one plane-sized buffer and Load reads it
// in bounded chunks; FieldHash, a session's field_hash, is the SHA-256 of
// its words. The xor catches one flipped bit but not the same bit flipped
// in two words. Version 1 files ("ADVCKPT1", no strings) still load with
// empty Fingerprint and Options, marking a checkpoint without recorded
// lineage.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/grid"
)

const (
	magicV1 = "ADVCKPT1"
	magicV2 = "ADVCKPT2"
	// maxString bounds the fingerprint/options strings on load, so hostile
	// headers cannot demand gigabyte allocations.
	maxString = 1 << 12
	// loadChunk bounds the words Load reads at once (1 MB): a whole 48³
	// field, or 16 rows of an 8192-point-wide plane.
	loadChunk = 1 << 17
)

// Meta describes a checkpointed run. Fingerprint and Options carry the
// canonical identity of the computation that produced the state (the run
// fingerprint from internal/core and Options.Canonical()), so a checkpoint
// file alone identifies its session lineage. Both are empty when the file
// predates format version 2. Meta stays comparable: lineage is carried as
// canonical strings, which round-trip exactly where parsed structs would
// not (GPUDefault and GPUC2050 collapse to one canonical form).
type Meta struct {
	N         grid.Dims
	C         grid.Velocity
	Nu        float64
	T0        float64 // simulated time integrated so far
	StepsDone int64
	// Fingerprint is the canonical run fingerprint of the session or job
	// this state belongs to ("" on version-1 files).
	Fingerprint string
	// Options is the Options.Canonical() encoding of the run's tuning
	// parameters ("" on version-1 files): a label saying what cut this
	// state, not an input — a session resumes from its record.
	Options string
}

// Save writes the state to w.
func Save(w io.Writer, m Meta, f *grid.Field) error { return save(w, m, f, nil) }

// save writes the state to w and the field's words, as they go, to tee if
// it is not nil.
func save(w io.Writer, m Meta, f *grid.Field, tee hash.Hash) error {
	if f.N != m.N {
		return fmt.Errorf("checkpoint: field %v does not match meta %v", f.N, m.N)
	}
	if len(m.Fingerprint) > maxString || len(m.Options) > maxString {
		return fmt.Errorf("checkpoint: lineage strings too long (%d/%d bytes)",
			len(m.Fingerprint), len(m.Options))
	}
	var b []byte
	for _, v := range []uint64{uint64(m.N.X), uint64(m.N.Y), uint64(m.N.Z),
		math.Float64bits(m.C.X), math.Float64bits(m.C.Y), math.Float64bits(m.C.Z),
		math.Float64bits(m.Nu), math.Float64bits(m.T0), uint64(m.StepsDone)} {
		b = le.AppendUint64(b, v)
	}
	for _, str := range []string{m.Fingerprint, m.Options} {
		b = append(le.AppendUint64(b, uint64(len(str))), str...)
		b = append(b, make([]byte, -len(b)&7)...) // zero-pad to a whole word
	}
	s := stream{w: w, tee: tee}
	_, s.err = io.WriteString(w, magicV2)
	s.put(b)
	s.putField(f)
	s.put(le.AppendUint64(b[:0], s.sum))
	return s.err
}

// Load reads a checkpoint from r, validating the magic and checksum. Both
// format versions are accepted; version-1 files load with empty
// Fingerprint and Options. What Load allocates grows with the bytes r
// delivers, whatever the header claims, up to the field itself.
func Load(r io.Reader) (Meta, *grid.Field, error) { return load(r, grid.Dims{}) }

// LoadSized is Load for a caller that knows the extents the state must
// have: a header that claims other extents is refused before its field is
// read.
func LoadSized(r io.Reader, n grid.Dims) (Meta, *grid.Field, error) { return load(r, n) }

// load reads a checkpoint whose extents are want, or any extents if want
// is zero.
func load(r io.Reader, want grid.Dims) (Meta, *grid.Field, error) {
	var m Meta
	head := make([]byte, len(magicV1))
	if _, err := io.ReadFull(r, head); err != nil {
		return m, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if string(head) != magicV1 && string(head) != magicV2 {
		return m, nil, fmt.Errorf("checkpoint: bad magic %q", head)
	}
	s := stream{r: r}
	b, err := s.get(3)
	if err != nil {
		return m, nil, fmt.Errorf("checkpoint: truncated header: %w", err)
	}
	nx, ny, nz := int64(le.Uint64(b)), int64(le.Uint64(b[8:])), int64(le.Uint64(b[16:]))
	// Bound each dimension before multiplying, so hostile headers cannot
	// overflow the volume check (found by FuzzLoad).
	const maxDim = 1 << 13 // 8192 points per dimension, far above the paper's 420
	if nx <= 0 || ny <= 0 || nz <= 0 || nx > maxDim || ny > maxDim || nz > maxDim {
		return m, nil, fmt.Errorf("checkpoint: implausible dims %dx%dx%d", nx, ny, nz)
	}
	if nx*ny*nz > (1 << 27) { // ~128M points ≈ 1 GB, above the paper's 420³
		return m, nil, fmt.Errorf("checkpoint: volume %d too large", nx*ny*nz)
	}
	m.N = grid.Dims{X: int(nx), Y: int(ny), Z: int(nz)}
	if want != (grid.Dims{}) && m.N != want {
		return m, nil, fmt.Errorf("checkpoint: dims %v, want %v", m.N, want)
	}
	if b, err = s.get(6); err != nil {
		return m, nil, fmt.Errorf("checkpoint: truncated header: %w", err)
	}
	for i, dst := range []*float64{&m.C.X, &m.C.Y, &m.C.Z, &m.Nu, &m.T0} {
		*dst = math.Float64frombits(le.Uint64(b[8*i:]))
	}
	m.StepsDone = int64(le.Uint64(b[40:]))
	if string(head) == magicV2 {
		if m.Fingerprint, err = s.getString(); err != nil {
			return m, nil, fmt.Errorf("checkpoint: bad fingerprint: %w", err)
		}
		if m.Options, err = s.getString(); err != nil {
			return m, nil, fmt.Errorf("checkpoint: bad options: %w", err)
		}
	}
	// The field arrives a z-plane at a time, each plane in chunks of at
	// most loadChunk words gathered in vals, which starts at one chunk and
	// at most doubles. The field is made once the first whole plane has
	// come: what Load allocates follows the bytes sent, not the header's
	// claim.
	plane := m.N.X * m.N.Y
	var f *grid.Field
	var vals []float64
	for k := 0; k < m.N.Z; k++ {
		vals = vals[:0]
		for left := plane; left > 0; left -= loadChunk {
			c := min(left, loadChunk)
			if b, err = s.get(c); err != nil {
				return m, nil, fmt.Errorf("checkpoint: truncated field: %w", err)
			}
			if len(vals)+c > cap(vals) {
				vals = slices.Grow(vals, max(c, len(vals)))
			}
			next := vals[len(vals) : len(vals)+c]
			for i := range next {
				next[i] = math.Float64frombits(le.Uint64(b[8*i:]))
			}
			vals = vals[:len(vals)+c]
		}
		if f == nil {
			f = grid.NewField(m.N, 1)
		}
		f.Unpack(grid.Layer(m.N, 0, 2, k, 1), vals)
	}
	if _, err := s.get(1); err != nil {
		return m, nil, fmt.Errorf("checkpoint: missing checksum: %w", err)
	}
	if s.sum != 0 { // the checksum word cancels a sound payload's
		return m, nil, fmt.Errorf("checkpoint: checksum mismatch (corrupt file)")
	}
	return m, f, nil
}

// FieldHash returns the hex SHA-256 of f's payload as Save writes it, the
// bitwise identity of a checkpointed state.
func FieldHash(f *grid.Field) string {
	h := sha256.New()
	(&stream{w: h}).putField(f) // a hash.Hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

var le = binary.LittleEndian

// stream is the codec of everything after the magic: a run of 64-bit
// little-endian words, each folded into the xor checksum sum on its way to
// w or from r; putField also copies the field's words to tee, if set.
// Reads land in buf, reused from one get to the next and never longer than
// loadChunk words or a lineage string. A write error sticks in err.
type stream struct {
	w   io.Writer
	tee hash.Hash // never fails a write
	r   io.Reader
	buf []byte
	sum uint64
	err error
}

func (s *stream) fold(b []byte) {
	for i := 0; i < len(b); i += 8 {
		s.sum ^= le.Uint64(b[i:])
	}
}

// put folds b's words into the checksum and writes them.
func (s *stream) put(b []byte) {
	if s.err == nil {
		s.fold(b)
		_, s.err = s.w.Write(b)
	}
}

// putField writes the interior of f one z-plane at a time, x fastest.
func (s *stream) putField(f *grid.Field) {
	plane := make([]float64, f.N.X*f.N.Y)
	b := make([]byte, 8*len(plane))
	for k := 0; k < f.N.Z && s.err == nil; k++ {
		f.Pack(grid.Layer(f.N, 0, 2, k, 1), plane)
		for i, v := range plane {
			le.PutUint64(b[8*i:], math.Float64bits(v))
		}
		s.put(b)
		if s.tee != nil {
			s.tee.Write(b)
		}
	}
}

// get reads the next n words and folds them into the checksum; a stream
// ending between two words reports io.EOF, inside one io.ErrUnexpectedEOF.
func (s *stream) get(n int) ([]byte, error) {
	s.buf = slices.Grow(s.buf[:0], 8*n)[:8*n]
	if got, err := io.ReadFull(s.r, s.buf); err != nil {
		if err == io.ErrUnexpectedEOF && got%8 == 0 {
			err = io.EOF
		}
		return nil, err
	}
	s.fold(s.buf)
	return s.buf, nil
}

// getString reads a length word and the string's bytes, zero-padded to a
// whole word.
func (s *stream) getString() (string, error) {
	b, err := s.get(1)
	if err != nil {
		return "", err
	}
	n := int64(le.Uint64(b))
	if n < 0 || n > maxString {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	if b, err = s.get(int(n+7) / 8); err != nil {
		return "", err
	}
	if len(bytes.TrimLeft(b[n:], "\x00")) != 0 {
		return "", fmt.Errorf("non-zero string padding")
	}
	return string(b[:n]), nil
}

// SaveFile writes the state to path, atomically and durably.
func SaveFile(path string, m Meta, f *grid.Field) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return Save(w, m, f) })
}

// SaveFileHash is SaveFile that also returns FieldHash(f), hashed from the
// words as they are written rather than from a second encoding.
func SaveFileHash(path string, m Meta, f *grid.Field) (string, error) {
	h := sha256.New()
	if err := WriteFileAtomic(path, func(w io.Writer) error { return save(w, m, f, h) }); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// WriteFileAtomic makes path hold what write produces, or leaves it as it
// was: the bytes go to a temp file beside it that is synced, closed and
// renamed over path, and the directory is synced so the rename cannot
// outlive the data through a power loss. The temp file is removed on every
// failure path.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(out); err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (Meta, *grid.Field, error) {
	in, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer in.Close()
	return Load(in)
}

// FromResult builds the checkpoint of a completed run.
func FromResult(p core.Problem, res *core.Result) (Meta, *grid.Field, error) {
	if res.Final == nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: result carries no final state")
	}
	np, err := p.Normalize()
	if err != nil {
		return Meta{}, nil, err
	}
	return Meta{
		N: np.N, C: np.C, Nu: np.Nu,
		T0:        np.T0 + np.Nu*float64(np.Steps),
		StepsDone: int64(np.Steps),
	}, res.Final, nil
}

// WithLineage returns a copy of m carrying the canonical identity of the
// run that produced it: the session/job fingerprint and the
// Options.Canonical() encoding.
func (m Meta) WithLineage(fingerprint, options string) Meta {
	m.Fingerprint = fingerprint
	m.Options = options
	return m
}

// Resume builds the problem that continues a checkpoint for the given
// number of further steps.
func Resume(m Meta, f *grid.Field, steps int) core.Problem {
	return core.Problem{
		N: m.N, C: m.C, Nu: m.Nu, Steps: steps,
		Initial: f, T0: m.T0,
	}
}
