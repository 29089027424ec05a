package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	_ "repro/internal/impl"
)

func testField(n grid.Dims) *grid.Field {
	f := grid.NewField(n, 1)
	f.Fill(func(i, j, k int) float64 { return float64(i) + 0.5*float64(j) - 0.25*float64(k) })
	return f
}

func TestSaveLoadRoundTrip(t *testing.T) {
	n := grid.Dims{X: 7, Y: 5, Z: 6}
	m := Meta{N: n, C: grid.Velocity{X: 1, Y: 0.5, Z: 0.25}, Nu: 1, T0: 3.5, StepsDone: 7}
	f := testField(n)
	var buf bytes.Buffer
	if err := Save(&buf, m, f); err != nil {
		t.Fatal(err)
	}
	m2, f2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatalf("meta %+v, want %+v", m2, m)
	}
	if nm := grid.DiffNorms(f, f2); nm.LInf != 0 {
		t.Fatalf("field differs: %+v", nm)
	}
}

func TestSaveLoadRoundTripLineage(t *testing.T) {
	n := grid.Dims{X: 5, Y: 4, Z: 3}
	o := core.Options{Tasks: 4, Threads: 2, BlockX: 16, BlockY: 8}.Normalize()
	p := core.DefaultProblem(5, 9)
	p.N = n
	m := Meta{
		N: n, C: grid.Velocity{X: 1, Y: 0.5, Z: 0.25}, Nu: 1, T0: 2, StepsDone: 9,
		Fingerprint: core.Fingerprint(core.BulkSync, p, o),
		Options:     o.Canonical(),
	}
	var buf bytes.Buffer
	if err := Save(&buf, m, testField(n)); err != nil {
		t.Fatal(err)
	}
	m2, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatalf("meta %+v, want %+v", m2, m)
	}
}

// saveV1 replicates the version-1 writer so backward compatibility stays
// testable after the live writer moved to version 2.
func saveV1(t *testing.T, m Meta, f *grid.Field) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("ADVCKPT1")
	var sum uint64
	put64 := func(v uint64) {
		sum ^= v
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	for _, v := range []int64{int64(m.N.X), int64(m.N.Y), int64(m.N.Z)} {
		put64(uint64(v))
	}
	for _, v := range []float64{m.C.X, m.C.Y, m.C.Z, m.Nu, m.T0} {
		put64(math.Float64bits(v))
	}
	put64(uint64(m.StepsDone))
	for k := 0; k < m.N.Z; k++ {
		for j := 0; j < m.N.Y; j++ {
			for i := 0; i < m.N.X; i++ {
				put64(math.Float64bits(f.At(i, j, k)))
			}
		}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], sum)
	buf.Write(b[:])
	return buf.Bytes()
}

func TestLoadVersion1Compat(t *testing.T) {
	n := grid.Dims{X: 4, Y: 3, Z: 2}
	m := Meta{N: n, C: grid.Velocity{X: 1}, Nu: 0.5, T0: 1.5, StepsDone: 3}
	f := testField(n)
	data := saveV1(t, m, f)
	m2, f2, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatalf("v1 meta %+v, want %+v", m2, m)
	}
	if m2.Fingerprint != "" || m2.Options != "" {
		t.Fatalf("v1 file must load with empty lineage, got %+v", m2)
	}
	if nm := grid.DiffNorms(f, f2); nm.LInf != 0 {
		t.Fatalf("v1 field differs: %+v", nm)
	}
}

func TestWithLineage(t *testing.T) {
	m := Meta{N: grid.Uniform(4), StepsDone: 2}
	m2 := m.WithLineage("fp", "o1;x=1")
	if m2.Fingerprint != "fp" || m2.Options != "o1;x=1" || m2.N != m.N {
		t.Fatalf("lineage not attached: %+v", m2)
	}
	if m.Fingerprint != "" {
		t.Fatal("WithLineage mutated its receiver")
	}
}

func TestSaveRejectsOversizeLineage(t *testing.T) {
	n := grid.Uniform(3)
	m := Meta{N: n, Fingerprint: string(make([]byte, maxString+1))}
	var buf bytes.Buffer
	if err := Save(&buf, m, testField(n)); err == nil {
		t.Fatal("oversize lineage accepted")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	n := grid.Uniform(4)
	var buf bytes.Buffer
	if err := Save(&buf, Meta{N: n, Nu: 1}, testField(n)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip one payload byte: checksum must catch it.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if _, _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt payload accepted")
	}

	// Truncation.
	if _, _, err := Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated file accepted")
	}

	// Wrong magic.
	bad2 := append([]byte("NOTMAGIC"), data[8:]...)
	if _, _, err := Load(bytes.NewReader(bad2)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSaveFieldMismatch(t *testing.T) {
	var buf bytes.Buffer
	err := Save(&buf, Meta{N: grid.Uniform(5)}, testField(grid.Uniform(4)))
	if err == nil {
		t.Fatal("mismatched field accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	n := grid.Uniform(6)
	m := Meta{N: n, C: grid.Velocity{X: 1}, Nu: 1, StepsDone: 2, T0: 2}
	if err := SaveFile(path, m, testField(n)); err != nil {
		t.Fatal(err)
	}
	m2, f2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m || f2.N != n {
		t.Fatalf("round trip failed: %+v", m2)
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestWriteFileAtomicFailureKeepsPreviousFile: a writer that fails midway
// leaves the file as it was and no temp file beside it.
func TestWriteFileAtomicFailureKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	write := func(s string, fail error) error {
		return WriteFileAtomic(path, func(w io.Writer) error {
			io.WriteString(w, s)
			return fail
		})
	}
	if err := write("first", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	if err := write("sec", boom); !errors.Is(err, boom) {
		t.Fatalf("failing writer reported %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first" {
		t.Fatalf("after a failed write the file holds %q, %v", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed write left %v behind", entries)
	}
}

// TestRestartBitwiseIdentical is the point of the package: integrating 20
// steps straight must equal integrating 10, checkpointing, and resuming
// for 10 more — bit for bit, for both a CPU and a GPU implementation.
func TestRestartBitwiseIdentical(t *testing.T) {
	for _, kind := range []core.Kind{core.SingleTask, core.BulkSync, core.GPUResident} {
		o := core.Options{Tasks: 2, Threads: 2, BlockX: 8, BlockY: 4}
		if !kind.UsesMPI() {
			o.Tasks = 1
		}
		runK := func(p core.Problem) *core.Result {
			t.Helper()
			r, err := core.New(kind)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(p, o)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		straight := runK(core.DefaultProblem(12, 20))

		first := runK(core.DefaultProblem(12, 10))
		m, f, err := FromResult(core.DefaultProblem(12, 10), first)
		if err != nil {
			t.Fatal(err)
		}
		// Through the serialized format, as a real restart would go.
		var buf bytes.Buffer
		if err := Save(&buf, m, f); err != nil {
			t.Fatal(err)
		}
		m2, f2, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		resumed := runK(Resume(m2, f2, 10))

		if nm := grid.DiffNorms(straight.Final, resumed.Final); nm.LInf != 0 {
			t.Fatalf("%v: restart diverged: LInf %g", kind, nm.LInf)
		}
	}
}

func TestResumeCarriesTime(t *testing.T) {
	m := Meta{N: grid.Uniform(8), C: grid.Velocity{X: 1}, Nu: 1, T0: 5, StepsDone: 5}
	p := Resume(m, testField(m.N), 3)
	np, err := p.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if np.T0 != 5 || np.Steps != 3 || np.Initial == nil {
		t.Fatalf("resume problem wrong: %+v", np)
	}
}

func TestVerifyAcrossRestart(t *testing.T) {
	// The analytic comparison must keep working after a restart: the
	// resumed run's norms are computed at T0 + nu*steps.
	r, err := core.New(core.SingleTask)
	if err != nil {
		t.Fatal(err)
	}
	p1 := core.DefaultProblem(24, 6)
	res1, err := r.Run(p1, core.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	m, f, err := FromResult(p1, res1)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Run(Resume(m, f, 6), core.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	// Error grows with time but must stay the same order of magnitude.
	if res2.Norms.L2 <= res1.Norms.L2 {
		t.Fatalf("error should grow: %g -> %g", res1.Norms.L2, res2.Norms.L2)
	}
	if res2.Norms.L2 > 20*res1.Norms.L2 {
		t.Fatalf("restart verification broken: %g -> %g", res1.Norms.L2, res2.Norms.L2)
	}
}

// TestFieldHashIsPayloadHash: the session's field_hash is the SHA-256 of
// exactly the field payload Save writes.
func TestFieldHashIsPayloadHash(t *testing.T) {
	if got := FieldHash(goldenField()); got != goldenFieldHash {
		t.Fatalf("FieldHash = %s, want %s", got, goldenFieldHash)
	}
}

// TestCodecAllocationsIndependentOfVolume: Save and Load move the field a
// z-plane at a time through reused buffers, so their allocation count does
// not grow with the field (the field Load returns is one allocation at
// any size).
func TestCodecAllocationsIndependentOfVolume(t *testing.T) {
	allocs := func(n int) (save, load float64) {
		m := Meta{N: grid.Uniform(n), Nu: 1, Fingerprint: "fp-abc123", Options: "o1;tasks=2;x"}
		f := testField(m.N)
		var buf bytes.Buffer
		if err := Save(&buf, m, f); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		save = testing.AllocsPerRun(5, func() {
			if err := Save(io.Discard, m, f); err != nil {
				t.Fatal(err)
			}
		})
		load = testing.AllocsPerRun(5, func() {
			if _, _, err := Load(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		return save, load
	}
	save8, load8 := allocs(8)
	save32, load32 := allocs(32)
	if save8 != save32 || load8 != load32 {
		t.Fatalf("allocations grow with volume: Save %v at 8³, %v at 32³; Load %v at 8³, %v at 32³",
			save8, save32, load8, load32)
	}
}

// TestLoadHeaderAloneAllocatesNoField: Load is fed untrusted bytes (a
// seeded session create carries a checkpoint in its body), so a header
// that claims a large field must not cost that field's memory before the
// field's data arrives.
func TestLoadHeaderAloneAllocatesNoField(t *testing.T) {
	data := []byte("ADVCKPT1")
	for _, v := range []uint64{1024, 1024, 64, 0, 0, 0, 0, 0, 0} { // 2^26 points, ≈ 0.5 GB
		data = binary.LittleEndian.AppendUint64(data, v)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("a header without a field loaded")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Fatalf("a %d-byte header allocated %d MB", len(data), got>>20)
	}
}

// TestLoadAllocatesWhatArrives: a header that claims 8192×8192×2 — a
// 512 MB z-plane — followed by k MB of field values and then the end of
// the stream costs memory in proportion to k, not to the claim.
func TestLoadAllocatesWhatArrives(t *testing.T) {
	for _, k := range []int{0, 1, 8} {
		data := []byte("ADVCKPT1")
		for _, v := range []uint64{8192, 8192, 2, 0, 0, 0, 0, 0, 0} {
			data = binary.LittleEndian.AppendUint64(data, v)
		}
		data = append(data, make([]byte, k<<20)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := Load(bytes.NewReader(data)); err == nil {
			t.Fatalf("k=%d: a truncated field loaded", k)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*k+4)<<20; got > limit {
			t.Errorf("%d MB of field values allocated %d MB, want at most %d", k, got>>20, limit>>20)
		}
	}
}

// TestLoadSplitsWidePlanes: a plane wider than loadChunk words arrives in
// several chunks and loads back to the field that was saved, and a stream
// that ends inside any of those chunks is a truncated field.
func TestLoadSplitsWidePlanes(t *testing.T) {
	m := Meta{N: grid.Dims{X: 400, Y: 400, Z: 3}, Nu: 0.5, StepsDone: 9, Fingerprint: "fp", Options: "o"}
	if m.N.X*m.N.Y <= loadChunk {
		t.Fatalf("a %d-word plane fits one chunk", m.N.X*m.N.Y)
	}
	f := testField(m.N)
	var buf bytes.Buffer
	if err := Save(&buf, m, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	gotM, got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if gotM != m || FieldHash(got) != FieldHash(f) {
		t.Errorf("loaded %+v with hash %s, saved %+v with hash %s", gotM, FieldHash(got), m, FieldHash(f))
	}
	plane, start := m.N.X*m.N.Y, len(data)-8-8*m.N.Volume()
	for _, words := range []int{loadChunk / 2, plane - 3, plane + loadChunk + 10, 3*plane - 1} {
		_, _, err := Load(bytes.NewReader(data[:start+8*words]))
		if err == nil || !strings.Contains(err.Error(), "truncated field") {
			t.Errorf("cut after %d field words: %v, want a truncated field", words, err)
		}
	}
}

// TestSaveFileHashIsFieldHash: the hash SaveFileHash takes from the words
// it writes is FieldHash of the field, and the file holds what Save writes.
func TestSaveFileHashIsFieldHash(t *testing.T) {
	m := Meta{N: grid.Dims{X: 5, Y: 4, Z: 3}, Nu: 0.5, StepsDone: 7, Fingerprint: "fp", Options: "o"}
	f := testField(m.N)
	path := filepath.Join(t.TempDir(), "ck")
	hash, err := SaveFileHash(path, m, f)
	if err != nil {
		t.Fatal(err)
	}
	if want := FieldHash(f); hash != want {
		t.Errorf("SaveFileHash returned %s, FieldHash %s", hash, want)
	}
	var want bytes.Buffer
	if err := Save(&want, m, f); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("SaveFileHash wrote %d bytes that differ from Save's %d (%v)", len(got), want.Len(), err)
	}
}
