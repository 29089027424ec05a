// Package cluster is the scale-out layer of the reproduction: a gateway
// that fronts N advectd nodes and applies the paper's overlap discipline
// one level up. Routing, cache placement, and drain/rebalance all proceed
// concurrently with in-flight job execution — membership changes reroute
// *new* traffic while accepted jobs keep running where they are, the way
// the paper's best implementation keeps MPI traffic moving while the
// stencil computes.
//
// Jobs are sharded by their content-addressed fingerprint
// (service.Request.CacheKey, built on core.Fingerprint) over a consistent-
// hash ring with virtual nodes, so identical requests land on the same
// node and its LRU result cache stays hot; when a membership change moves a
// key, its new owner recomputes it once and caches it from then on.
package cluster

import "sort"

// ringSeed fixes the vnode placement hash. The ring must be a pure
// function of the member names so every gateway (and every test) derives
// the identical key→node mapping.
const ringSeed = 0x61647665637464 // "advectd"

// Ring is an immutable consistent-hash ring: each member contributes
// VNodes virtual points placed by a deterministic hash, and a key belongs
// to the member owning the first point at or clockwise after the key's
// hash. Immutability is what keeps Lookup allocation- and lock-free on the
// submit hot path: a membership change builds a new ring (NewRing over the
// new member set) and the router swaps an atomic pointer.
type Ring struct {
	vnodes int
	nodes  []string // sorted member names
	hashes []uint64 // vnode positions, sorted ascending
	owner  []int32  // owner[i] indexes nodes for hashes[i]
}

// DefaultVNodes is the virtual-node count per member: enough that the
// max/mean shard imbalance stays under ~15% for small clusters (asserted
// by the distribution test) while keeping ring rebuilds trivially cheap.
const DefaultVNodes = 160

// NewRing builds a ring over the given members. vnodes < 1 selects
// DefaultVNodes. Member order does not matter; an empty member list yields
// a ring whose Lookup returns "".
func NewRing(members []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	nodes := make([]string, len(members))
	copy(nodes, members)
	sort.Strings(nodes)
	r := &Ring{
		vnodes: vnodes,
		nodes:  nodes,
		hashes: make([]uint64, 0, len(nodes)*vnodes),
		owner:  make([]int32, 0, len(nodes)*vnodes),
	}
	type vnode struct {
		hash uint64
		node int32
	}
	points := make([]vnode, 0, len(nodes)*vnodes)
	for ni, name := range nodes {
		h := hashString(name) ^ ringSeed
		for v := 0; v < vnodes; v++ {
			// Derive each vnode position from the previous via an avalanche
			// mix: deterministic in (name, v), uncorrelated across v.
			h = mix64(h + 0x9e3779b97f4a7c15)
			points = append(points, vnode{hash: h, node: int32(ni)})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Ties (astronomically rare) break by node index so the mapping
		// stays independent of input order.
		return points[i].node < points[j].node
	})
	for _, p := range points {
		r.hashes = append(r.hashes, p.hash)
		r.owner = append(r.owner, p.node)
	}
	return r
}

// Nodes returns the member names (sorted); the caller must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Lookup returns the member owning key, or "" on an empty ring. It is the
// per-submit routing decision, so it must stay allocation-free and
// sub-microsecond (BENCH_guards.json guards the measured contract).
func (r *Ring) Lookup(key string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	i := r.search(hashString(key))
	return r.nodes[r.owner[i]]
}

// LookupOffset returns the skip-th *distinct* member clockwise from key's
// owner: skip 0 is the owner itself, skip 1 the first failover successor,
// and so on. It wraps modulo the member count, so any skip is valid on a
// non-empty ring. The gateway walks successors when the owner sheds load
// or is down.
func (r *Ring) LookupOffset(key string, skip int) string {
	n := len(r.nodes)
	if n == 0 {
		return ""
	}
	skip = skip % n
	i := r.search(hashString(key))
	seen := make([]bool, n)
	for {
		node := r.owner[i]
		if !seen[node] {
			if skip == 0 {
				return r.nodes[node]
			}
			seen[node] = true
			skip--
		}
		i++
		if i == len(r.hashes) {
			i = 0
		}
	}
}

// search returns the index of the first vnode at or after h (wrapping).
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.hashes) {
		return 0
	}
	return lo
}

// hashString is FNV-1a 64 over the key bytes followed by an avalanche
// finalizer. FNV alone clusters on short common-prefix keys; the mix step
// spreads fingerprint-shaped keys evenly around the ring (the distribution
// test quantifies this).
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
