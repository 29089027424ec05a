// Package cluster is the scale-out layer of the reproduction: a gateway
// that fronts N advectd nodes and applies the paper's overlap discipline
// one level up. Routing, cache placement, and drain/rebalance all proceed
// concurrently with in-flight job execution — membership changes reroute
// *new* traffic while accepted jobs keep running where they are, the way
// the paper's best implementation keeps MPI traffic moving while the
// stencil computes.
//
// Jobs are sharded by their content-addressed fingerprint
// (service.Request.CacheKey, built on core.Fingerprint) by rendezvous
// (highest-random-weight) hashing over the routable members, so identical
// requests land on the same node and its LRU result cache stays hot; when
// a membership change moves a key, its new owner recomputes it once and
// caches it from then on.
package cluster

import "sort"

// Ring is an immutable rendezvous-hash routing snapshot over a member set.
// Each member scores a key by mix64(hashString(key) ^ hashString(member));
// a key's order over the members is by descending score, ties broken by
// name, and its owner is the first. The order is a pure function of the
// key and the member set, so every gateway derives the same key→node
// mapping, and a newcomer takes only the keys it now scores highest on.
// Immutability keeps Lookup allocation- and lock-free on the submit hot
// path: Membership publishes a new Ring on every transition.
type Ring struct {
	nodes  []string // sorted member names
	hashes []uint64 // hashString of each name, in nodes' order
}

// NewRing builds a ring over the given members. Member order does not
// matter; an empty member list yields a ring whose Lookup returns "".
func NewRing(members []string) *Ring {
	nodes := append([]string(nil), members...)
	sort.Strings(nodes)
	r := &Ring{nodes: nodes, hashes: make([]uint64, len(nodes))}
	for i, name := range nodes {
		r.hashes[i] = hashString(name)
	}
	return r
}

// Nodes returns the member names (sorted); the caller must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Lookup returns the member owning key, or "" on an empty ring. It is the
// per-submit routing decision, so it must stay allocation-free and
// sub-microsecond (BENCH_guards.json guards the measured contract).
func (r *Ring) Lookup(key string) string { return r.LookupOffset(key, 0) }

// LookupOffset returns the skip-th member in key's order: skip 0 is the
// owner itself, skip 1 the first failover successor, and so on. It wraps
// modulo the member count, so any skip is valid on a non-empty ring. The
// gateway walks successors when the owner sheds load or is down. Each
// pass picks the best member ranked after the previous pick, so the walk
// allocates nothing.
func (r *Ring) LookupOffset(key string, skip int) string {
	n := len(r.nodes)
	if n == 0 {
		return ""
	}
	hk := hashString(key)
	pick, pickScore := -1, uint64(0)
	for k := 0; k <= skip%n; k++ {
		last, lastScore := pick, pickScore
		pick = -1
		for i, h := range r.hashes {
			s := mix64(hk ^ h)
			if last >= 0 && !ahead(lastScore, last, s, i) {
				continue // ranked at or before the last pick
			}
			if pick < 0 || ahead(s, i, pickScore, pick) {
				pick, pickScore = i, s
			}
		}
	}
	return r.nodes[pick]
}

// ahead reports whether the member at index i with score s ranks before
// the one at index j with score t: the higher score first, the lower
// index (the earlier name) on a tie.
func ahead(s uint64, i int, t uint64, j int) bool { return s > t || s == t && i < j }

// hashString is FNV-1a 64 over the key bytes followed by an avalanche
// finalizer. FNV alone clusters on short common-prefix keys; the mix step
// spreads fingerprint-shaped keys evenly over the members (the
// distribution test quantifies this).
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a cheap, well-studied avalanche.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
