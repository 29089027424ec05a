package core

// Canonical encodings of run requests. A simulation request — (Kind,
// Problem, Options) — must hash identically whenever it describes the same
// computation, so the service result cache (internal/service) can answer
// repeated requests without re-running them. The encoding is a versioned,
// fixed-order key=value string with floats in Go's shortest round-trip
// form; it is a hash input and a checkpoint header, never parsed back — a
// stored Problem or Options is its JSON form (session.Record).

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
// hash, which keeps the fingerprint honest.
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
// The cancellation context, span recorder and SkipGather are excluded: two
// runs that differ only in Ctx, Rec or SkipGather are the same computation.
// The GPU model is encoded by name, so GPUDefault and GPUC2050 (the same
// device) collapse to one form.
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
