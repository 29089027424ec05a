// Package checkpoint saves and restores simulation state. The paper's
// GPU-resident scenario assumes "a computation might run for hours between
// CPU-GPU checkpoints" (§IV-E); this package supplies the checkpoints: a
// compact self-describing binary format holding the problem description,
// the simulated time already integrated, and the full field, written so a
// resumed run continues bit-for-bit where the original stopped.
//
// Format (little endian):
//
//	magic "ADVCKPT2" | nx ny nz int64 | cx cy cz nu t0 float64
//	| steps-done int64 | fingerprint string | options string
//	| nx*ny*nz float64 field values (x fastest)
//	| xor checksum of the payload as uint64
//
// Strings are encoded as a uint64 byte length followed by the bytes
// zero-padded to an 8-byte boundary, every word folded into the checksum.
// Version 1 files ("ADVCKPT1", no strings) still load; their Fingerprint
// and Options come back empty, marking a checkpoint without recorded
// lineage.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/grid"
)

const (
	magicV1 = "ADVCKPT1"
	magicV2 = "ADVCKPT2"
	// maxString bounds the fingerprint/options strings on load, so hostile
	// headers cannot demand gigabyte allocations.
	maxString = 1 << 12
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
func Save(w io.Writer, m Meta, f *grid.Field) error {
	if f.N != m.N {
		return fmt.Errorf("checkpoint: field %v does not match meta %v", f.N, m.N)
	}
	if len(m.Fingerprint) > maxString || len(m.Options) > maxString {
		return fmt.Errorf("checkpoint: lineage strings too long (%d/%d bytes)",
			len(m.Fingerprint), len(m.Options))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magicV2); err != nil {
		return err
	}
	var sum uint64
	put64 := func(v uint64) error {
		sum ^= v
		return binary.Write(bw, binary.LittleEndian, v)
	}
	putI := func(v int64) error { return put64(uint64(v)) }
	putF := func(v float64) error { return put64(math.Float64bits(v)) }
	putS := func(s string) error {
		if err := putI(int64(len(s))); err != nil {
			return err
		}
		b := make([]byte, (len(s)+7)/8*8)
		copy(b, s)
		for i := 0; i < len(b); i += 8 {
			if err := put64(binary.LittleEndian.Uint64(b[i:])); err != nil {
				return err
			}
		}
		return nil
	}

	for _, v := range []int64{int64(m.N.X), int64(m.N.Y), int64(m.N.Z)} {
		if err := putI(v); err != nil {
			return err
		}
	}
	for _, v := range []float64{m.C.X, m.C.Y, m.C.Z, m.Nu, m.T0} {
		if err := putF(v); err != nil {
			return err
		}
	}
	if err := putI(m.StepsDone); err != nil {
		return err
	}
	if err := putS(m.Fingerprint); err != nil {
		return err
	}
	if err := putS(m.Options); err != nil {
		return err
	}
	for k := 0; k < m.N.Z; k++ {
		for j := 0; j < m.N.Y; j++ {
			for i := 0; i < m.N.X; i++ {
				if err := putF(f.At(i, j, k)); err != nil {
					return err
				}
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, sum); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a checkpoint from r, validating the magic and checksum. Both
// format versions are accepted; version-1 files load with empty
// Fingerprint and Options.
func Load(r io.Reader) (Meta, *grid.Field, error) {
	br := bufio.NewReader(r)
	var m Meta
	head := make([]byte, len(magicV1))
	if _, err := io.ReadFull(br, head); err != nil {
		return m, nil, fmt.Errorf("checkpoint: %w", err)
	}
	version := 0
	switch string(head) {
	case magicV1:
		version = 1
	case magicV2:
		version = 2
	default:
		return m, nil, fmt.Errorf("checkpoint: bad magic %q", head)
	}
	var sum uint64
	get64 := func() (uint64, error) {
		var v uint64
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return 0, err
		}
		sum ^= v
		return v, nil
	}
	getI := func() (int64, error) { v, err := get64(); return int64(v), err }
	getF := func() (float64, error) { v, err := get64(); return math.Float64frombits(v), err }
	getS := func() (string, error) {
		n, err := getI()
		if err != nil {
			return "", err
		}
		if n < 0 || n > maxString {
			return "", fmt.Errorf("implausible string length %d", n)
		}
		b := make([]byte, (n+7)/8*8)
		for i := 0; i < len(b); i += 8 {
			v, err := get64()
			if err != nil {
				return "", err
			}
			binary.LittleEndian.PutUint64(b[i:], v)
		}
		for _, pad := range b[n:] {
			if pad != 0 {
				return "", fmt.Errorf("non-zero string padding")
			}
		}
		return string(b[:n]), nil
	}

	var err error
	var nx, ny, nz int64
	if nx, err = getI(); err == nil {
		if ny, err = getI(); err == nil {
			nz, err = getI()
		}
	}
	if err != nil {
		return m, nil, fmt.Errorf("checkpoint: truncated header: %w", err)
	}
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
	for _, dst := range []*float64{&m.C.X, &m.C.Y, &m.C.Z, &m.Nu, &m.T0} {
		if *dst, err = getF(); err != nil {
			return m, nil, fmt.Errorf("checkpoint: truncated header: %w", err)
		}
	}
	if m.StepsDone, err = getI(); err != nil {
		return m, nil, fmt.Errorf("checkpoint: truncated header: %w", err)
	}
	if version >= 2 {
		if m.Fingerprint, err = getS(); err != nil {
			return m, nil, fmt.Errorf("checkpoint: bad fingerprint: %w", err)
		}
		if m.Options, err = getS(); err != nil {
			return m, nil, fmt.Errorf("checkpoint: bad options: %w", err)
		}
	}

	f := grid.NewField(m.N, 1)
	for k := 0; k < m.N.Z; k++ {
		for j := 0; j < m.N.Y; j++ {
			for i := 0; i < m.N.X; i++ {
				v, err := getF()
				if err != nil {
					return m, nil, fmt.Errorf("checkpoint: truncated field: %w", err)
				}
				f.Set(i, j, k, v)
			}
		}
	}
	var want uint64
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return m, nil, fmt.Errorf("checkpoint: missing checksum: %w", err)
	}
	if want != sum {
		return m, nil, fmt.Errorf("checkpoint: checksum mismatch (corrupt file)")
	}
	return m, f, nil
}

// SaveFile writes the state to path, atomically and durably.
func SaveFile(path string, m Meta, f *grid.Field) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return Save(w, m, f) })
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
