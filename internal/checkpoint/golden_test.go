package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/grid"
)

// goldenFieldHash is the SHA-256 of goldenField's payload: its interior as
// little-endian float64 words, x fastest, z slowest — the session's
// field_hash of that state.
const goldenFieldHash = "f9a48c59cd888022781aeffd697b3563de49a7d61a076de67a1b97ecb3a0f339"

// goldenField is a 5×4×3 field whose values use every byte of their
// words; each is one correctly rounded division, so it is the same on
// every platform.
func goldenField() *grid.Field {
	f := grid.NewField(grid.Dims{X: 5, Y: 4, Z: 3}, 1)
	f.Fill(func(i, j, k int) float64 { return float64(i+1)/float64(j+3) - float64(k)/7 })
	return f
}

// TestSaveGolden pins the version-2 format byte for byte: files already on
// disk, and the field hashes sessions report, must read and compare the
// same under any rewrite of the codec. One case carries lineage strings
// whose lengths are not multiples of 8, so the zero padding is pinned too.
func TestSaveGolden(t *testing.T) {
	f := goldenField()
	base := Meta{N: f.N, C: grid.Velocity{X: 1, Y: -0.5, Z: 0.25}, Nu: 0.75, T0: 1.5, StepsDone: 9}
	for _, tc := range []struct {
		name string
		m    Meta
		size int
		file string
	}{
		{"lineage", base.WithLineage("fp-abc123", "o1;tasks=2;x"), 616,
			"6c70ea0253c4f07990938a12114ca292d005ff35d294fb58cb6cb4afeeb146e8"},
		{"no lineage", base, 584,
			"be0c12037196a0fc5832724337361dbb8ef4390e51b1ec6c0a6eacc706c24195"},
	} {
		var buf bytes.Buffer
		if err := Save(&buf, tc.m, f); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if len(data) != tc.size {
			t.Fatalf("%s: %d bytes, want %d", tc.name, len(data), tc.size)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != tc.file {
			t.Fatalf("%s: file hashes to %x, want %s", tc.name, sum, tc.file)
		}
		// The field payload is the last n³ words before the checksum.
		payload := data[len(data)-8-8*f.N.Volume() : len(data)-8]
		if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != goldenFieldHash {
			t.Fatalf("%s: field payload hashes to %x, want %s", tc.name, sum, goldenFieldHash)
		}
	}
}
