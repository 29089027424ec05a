package core

// Canonical encodings of run requests. A simulation request — (Kind,
// Problem, Options) — must hash identically whenever it describes the same
// computation, so the service result cache (internal/service) can answer
// repeated requests without re-running them. The encoding is a versioned,
// fixed-order key=value string with floats in Go's shortest round-trip
// form, which makes it both deterministic and parseable back into the
// structs it came from.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/grid"
)

// fv formats a float in the shortest form that parses back bit-exactly.
func fv(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// bv formats a bool as 0/1.
func bv(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// Canonical returns a deterministic, versioned encoding of the problem.
// A checkpointed initial state (Problem.Initial) is folded in as a content
// hash: it keeps the fingerprint honest but cannot be parsed back.
func (p Problem) Canonical() string {
	init := "-"
	if p.Initial != nil {
		init = "sha256:" + hashField(p.Initial)
	}
	return strings.Join([]string{
		"p1",
		fmt.Sprintf("n=%d,%d,%d", p.N.X, p.N.Y, p.N.Z),
		fmt.Sprintf("c=%s,%s,%s", fv(p.C.X), fv(p.C.Y), fv(p.C.Z)),
		"nu=" + fv(p.Nu),
		"steps=" + strconv.Itoa(p.Steps),
		fmt.Sprintf("wave=%s,%s,%s,%s",
			fv(p.Wave.Center[0]), fv(p.Wave.Center[1]), fv(p.Wave.Center[2]), fv(p.Wave.Sigma)),
		"t0=" + fv(p.T0),
		"init=" + init,
	}, ";")
}

// Canonical returns a deterministic, versioned encoding of the options.
// The cancellation context and span recorder are excluded: two runs that
// differ only in Ctx or Rec are the same computation. The GPU model is
// encoded by name, so
// GPUDefault and GPUC2050 (the same device) collapse to one form.
func (o Options) Canonical() string {
	return strings.Join([]string{
		"o1",
		"tasks=" + strconv.Itoa(o.Tasks),
		"threads=" + strconv.Itoa(o.Threads),
		fmt.Sprintf("block=%d,%d", o.BlockX, o.BlockY),
		"box=" + strconv.Itoa(o.BoxThickness),
		"halo=" + strconv.Itoa(o.HaloWidth),
		"tpg=" + strconv.Itoa(o.TasksPerGPU),
		"gpu=" + o.GPU.String(),
		"verify=" + bv(o.Verify),
		"trace=0", // a retired option, kept constant so fingerprints written since o1 stay valid
	}, ";")
}

// Fingerprint returns the hex SHA-256 of a run request's canonical form.
// Two requests share a fingerprint exactly when they describe the same
// computation, which makes it a safe content-addressed cache key.
func Fingerprint(k Kind, p Problem, o Options) string {
	sum := sha256.Sum256([]byte(k.String() + "|" + p.Canonical() + "|" + o.Canonical()))
	return hex.EncodeToString(sum[:])
}

// hashField returns the hex SHA-256 of a field's extents and raw values.
func hashField(f *grid.Field) string {
	h := sha256.New()
	var buf [8]byte
	for _, n := range []int{f.N.X, f.N.Y, f.N.Z, f.Halo} {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(n)))
		h.Write(buf[:])
	}
	for _, v := range f.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonFields splits a canonical string, checks its version tag, and
// returns the key=value fields in order.
func canonFields(s, version string) ([][2]string, error) {
	parts := strings.Split(s, ";")
	if len(parts) == 0 || parts[0] != version {
		return nil, fmt.Errorf("core: canonical string %q is not version %s", s, version)
	}
	out := make([][2]string, 0, len(parts)-1)
	for _, part := range parts[1:] {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("core: malformed canonical field %q", part)
		}
		out = append(out, [2]string{k, v})
	}
	return out, nil
}

type canonReader struct {
	fields [][2]string
	next   int
	err    error
}

// take returns the value of the next field, which must have the given key.
func (r *canonReader) take(key string) string {
	if r.err != nil {
		return ""
	}
	if r.next >= len(r.fields) {
		r.err = fmt.Errorf("core: canonical string missing field %q", key)
		return ""
	}
	f := r.fields[r.next]
	r.next++
	if f[0] != key {
		r.err = fmt.Errorf("core: canonical field %q where %q expected", f[0], key)
		return ""
	}
	return f[1]
}

func (r *canonReader) takeInt(key string) int {
	v := r.take(key)
	if r.err != nil {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		r.err = fmt.Errorf("core: canonical field %s: %v", key, err)
	}
	return n
}

func (r *canonReader) takeFloat(key string) float64 {
	v := r.take(key)
	if r.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		r.err = fmt.Errorf("core: canonical field %s: %v", key, err)
	}
	return f
}

func (r *canonReader) takeBool(key string) bool {
	v := r.take(key)
	if r.err != nil {
		return false
	}
	switch v {
	case "0":
		return false
	case "1":
		return true
	}
	r.err = fmt.Errorf("core: canonical field %s: bad bool %q", key, v)
	return false
}

// takeList returns the comma-separated parts of the next field, which must
// have exactly n of them.
func (r *canonReader) takeList(key string, n int) []string {
	v := r.take(key)
	if r.err != nil {
		return make([]string, n)
	}
	parts := strings.Split(v, ",")
	if len(parts) != n {
		r.err = fmt.Errorf("core: canonical field %s: want %d parts, got %d", key, n, len(parts))
		return make([]string, n)
	}
	return parts
}

func (r *canonReader) float(key, v string) float64 {
	if r.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		r.err = fmt.Errorf("core: canonical field %s: %v", key, err)
	}
	return f
}

func (r *canonReader) int(key, v string) int {
	if r.err != nil {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		r.err = fmt.Errorf("core: canonical field %s: %v", key, err)
	}
	return n
}

func (r *canonReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.next != len(r.fields) {
		return fmt.Errorf("core: canonical string has %d trailing fields", len(r.fields)-r.next)
	}
	return nil
}

// ParseProblemCanonical inverts Problem.Canonical. Encodings of problems
// with a checkpointed initial state (init != "-") carry only a content
// hash and cannot be reconstructed; they parse with an error.
func ParseProblemCanonical(s string) (Problem, error) {
	fields, err := canonFields(s, "p1")
	if err != nil {
		return Problem{}, err
	}
	r := &canonReader{fields: fields}
	var p Problem
	n := r.takeList("n", 3)
	p.N = grid.Dims{X: r.int("n", n[0]), Y: r.int("n", n[1]), Z: r.int("n", n[2])}
	c := r.takeList("c", 3)
	p.C = grid.Velocity{X: r.float("c", c[0]), Y: r.float("c", c[1]), Z: r.float("c", c[2])}
	p.Nu = r.takeFloat("nu")
	p.Steps = r.takeInt("steps")
	w := r.takeList("wave", 4)
	p.Wave = grid.Gaussian{
		Center: [3]float64{r.float("wave", w[0]), r.float("wave", w[1]), r.float("wave", w[2])},
		Sigma:  r.float("wave", w[3]),
	}
	p.T0 = r.takeFloat("t0")
	init := r.take("init")
	if err := r.done(); err != nil {
		return Problem{}, err
	}
	if init != "-" {
		return Problem{}, fmt.Errorf("core: canonical problem has a checkpointed initial state (%s); it cannot be reconstructed from its hash", init)
	}
	return p, nil
}

// ParseOptionsCanonical inverts Options.Canonical. The parsed options
// carry a nil Ctx and nil Rec.
func ParseOptionsCanonical(s string) (Options, error) {
	fields, err := canonFields(s, "o1")
	if err != nil {
		return Options{}, err
	}
	r := &canonReader{fields: fields}
	var o Options
	o.Tasks = r.takeInt("tasks")
	o.Threads = r.takeInt("threads")
	b := r.takeList("block", 2)
	o.BlockX, o.BlockY = r.int("block", b[0]), r.int("block", b[1])
	o.BoxThickness = r.takeInt("box")
	o.HaloWidth = r.takeInt("halo")
	o.TasksPerGPU = r.takeInt("tpg")
	gpu := r.take("gpu")
	o.Verify = r.takeBool("verify")
	r.takeBool("trace") // retired: accepted so stored encodings still parse
	if err := r.done(); err != nil {
		return Options{}, err
	}
	switch gpu {
	case "c2050":
		o.GPU = GPUC2050
	case "c1060":
		o.GPU = GPUC1060
	default:
		return Options{}, fmt.Errorf("core: canonical field gpu: unknown model %q", gpu)
	}
	return o, nil
}
