package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"
)

// fingerprintKeys returns n keys shaped like the real routing keys: hex
// SHA-256 digests with a short type prefix, exactly what
// service.Request.CacheKey produces.
func fingerprintKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte("key-" + strconv.Itoa(i)))
		keys[i] = "sim-" + hex.EncodeToString(sum[:])
	}
	return keys
}

func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	return names
}

// TestRingDeterministic: the mapping is a pure function of the member set,
// independent of insertion order — two gateways must agree on every key.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"})
	b := NewRing([]string{"n3", "n1", "n2"})
	for _, key := range fingerprintKeys(500) {
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("key %s: rings disagree (%s, %s)", key, a.Lookup(key), b.Lookup(key))
		}
	}
}

// TestRingDistribution: the shards stay balanced. Every member scores
// every key independently, so each key's owner is uniform over the
// members and the per-node counts are multinomial: at 20 000 keys over 8
// nodes one standard deviation of a share is 1.9% of the mean, so each
// share stays within 0.95–1.05 of the mean (2.7σ at 8 nodes, 5σ at 3) and
// the coefficient of variation of the shares under 0.03. The keys are
// fixed, so the counts are a constant of the test.
func TestRingDistribution(t *testing.T) {
	const nKeys = 20000
	for _, nNodes := range []int{3, 5, 8} {
		r := NewRing(nodeNames(nNodes))
		counts := map[string]int{}
		for _, key := range fingerprintKeys(nKeys) {
			counts[r.Lookup(key)]++
		}
		if len(counts) != nNodes {
			t.Fatalf("%d nodes: only %d received keys", nNodes, len(counts))
		}
		mean := float64(nKeys) / float64(nNodes)
		min, max := float64(nKeys), 0.0
		var sumSq float64
		for node, c := range counts {
			if float64(c) > max {
				max = float64(c)
			}
			if float64(c) < min {
				min = float64(c)
			}
			d := float64(c) - mean
			sumSq += d * d
			t.Logf("%d nodes: %s owns %d (%.2f of mean)", nNodes, node, c, float64(c)/mean)
		}
		if ratio := max / mean; ratio > 1.05 {
			t.Errorf("%d nodes: max/mean %.3f > 1.05", nNodes, ratio)
		}
		if ratio := min / mean; ratio < 0.95 {
			t.Errorf("%d nodes: min/mean %.3f < 0.95", nNodes, ratio)
		}
		if cv := math.Sqrt(sumSq/float64(nNodes)) / mean; cv > 0.03 {
			t.Errorf("%d nodes: share coefficient of variation %.3f > 0.03", nNodes, cv)
		}
	}
}

// TestRingMinimalRemap: adding a node to an N-node ring must move roughly
// K/(N+1) of K keys — the rendezvous-hashing contract that keeps cache
// affinity through membership changes. Concrete bounds: the moved fraction
// stays within a factor of 1.6 of ideal, and every moved key moves *to*
// the new node (never between old nodes).
func TestRingMinimalRemap(t *testing.T) {
	const nKeys = 20000
	keys := fingerprintKeys(nKeys)
	for _, nNodes := range []int{3, 5} {
		before := NewRing(nodeNames(nNodes))
		after := NewRing(append(nodeNames(nNodes), "newcomer"))
		moved := 0
		for _, key := range keys {
			was, is := before.Lookup(key), after.Lookup(key)
			if was == is {
				continue
			}
			moved++
			if is != "newcomer" {
				t.Fatalf("key %s moved between old nodes: %s -> %s", key, was, is)
			}
		}
		ideal := float64(nKeys) / float64(nNodes+1)
		frac := float64(moved) / float64(nKeys)
		t.Logf("%d+1 nodes: moved %d/%d (%.3f; ideal %.3f)",
			nNodes, moved, nKeys, frac, ideal/float64(nKeys))
		if float64(moved) > 1.6*ideal {
			t.Errorf("%d+1 nodes: %d keys moved, > 1.6× ideal %.0f", nNodes, moved, ideal)
		}
		if float64(moved) < ideal/1.6 {
			t.Errorf("%d+1 nodes: only %d keys moved, < ideal/1.6 %.0f", nNodes, moved, ideal/1.6)
		}
		// Without the newcomer the original mapping is back exactly: a ring
		// is a pure function of its member set.
		restored := NewRing(nodeNames(nNodes))
		for _, key := range keys[:2000] {
			if before.Lookup(key) != restored.Lookup(key) {
				t.Fatalf("key %s: remove did not restore ownership", key)
			}
		}
	}
}

// TestRingLookupOffset: offset 0 is the owner, successive offsets walk
// distinct members in descending score order (ties by name), and the walk
// covers the whole cluster.
func TestRingLookupOffset(t *testing.T) {
	r := NewRing(nodeNames(4))
	for _, key := range fingerprintKeys(200) {
		order := nodeNames(4)
		score := func(i int) uint64 { return mix64(hashString(key) ^ hashString(order[i])) }
		sort.SliceStable(order, func(i, j int) bool { return score(i) > score(j) })
		for skip, want := range order {
			if got := r.LookupOffset(key, skip); got != want {
				t.Fatalf("key %s: offset %d = %s, want %s (order %v)", key, skip, got, want, order)
			}
		}
		if got, want := r.LookupOffset(key, 0), r.Lookup(key); got != want {
			t.Fatalf("key %s: offset 0 %s != owner %s", key, got, want)
		}
		seen := map[string]bool{}
		for skip := 0; skip < 4; skip++ {
			seen[r.LookupOffset(key, skip)] = true
		}
		if len(seen) != 4 {
			t.Fatalf("key %s: offsets 0..3 visited %d distinct nodes, want 4", key, len(seen))
		}
		// Wrapping: skip n ≡ skip 0.
		if r.LookupOffset(key, 4) != r.Lookup(key) {
			t.Fatalf("key %s: offset n did not wrap to owner", key)
		}
	}
}

// TestRingEmptyAndSingle covers the degenerate memberships the router can
// pass through while a cluster drains down.
func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Lookup("anything"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want \"\"", got)
	}
	if got := empty.LookupOffset("anything", 1); got != "" {
		t.Fatalf("empty ring LookupOffset = %q, want \"\"", got)
	}
	one := NewRing([]string{"solo"})
	for _, key := range fingerprintKeys(50) {
		if one.Lookup(key) != "solo" || one.LookupOffset(key, 3) != "solo" {
			t.Fatal("single-member ring must own every key at every offset")
		}
	}
}

// TestRingLookupAllocationFree asserts the hot-path contract directly (the
// ci.sh bench guard also enforces the measured ns/op bound): the owner
// pick and each failover successor place walks to allocate nothing.
func TestRingLookupAllocationFree(t *testing.T) {
	r := NewRing(nodeNames(5))
	keys := fingerprintKeys(64)
	avg := testing.AllocsPerRun(1000, func() {
		for _, key := range keys {
			if r.Lookup(key) == "" {
				t.Fatal("lookup failed")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("Ring.Lookup allocates: %.1f allocs per 64 lookups", avg)
	}
	for skip := 0; skip <= len(r.Nodes()); skip++ {
		avg := testing.AllocsPerRun(1000, func() {
			for _, key := range keys {
				if r.LookupOffset(key, skip) == "" {
					t.Fatal("lookup failed")
				}
			}
		})
		if avg != 0 {
			t.Fatalf("Ring.LookupOffset at skip %d allocates: %.1f allocs per 64 lookups", skip, avg)
		}
	}
}

// BenchmarkRingLookup is the BENCH_guards.json guard: the per-submit
// routing decision must stay allocation-free and sub-microsecond.
func BenchmarkRingLookup(b *testing.B) {
	r := NewRing(nodeNames(5))
	keys := fingerprintKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Lookup(keys[i&1023]) == "" {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkRingBuild is informational: how expensive a membership change
// (a new routing snapshot) is. Snapshots are built per membership event,
// not per submit.
func BenchmarkRingBuild(b *testing.B) {
	names := nodeNames(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRing(names)
	}
}
