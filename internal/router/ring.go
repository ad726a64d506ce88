// Package router is the fleet front of DESIGN.md §10: a consistent-hash
// router that shards socbufd's solve endpoints across N backends by
// normalised request fingerprint, so request coalescing and cache locality —
// both keyed on exactly that fingerprint — survive scale-out. It also hosts
// the fleet's shared solve-cache sidecar for robust sizings and placement
// results (the solvecache.StoreHandler protocol under /v1/cache/),
// aggregates per-shard stats, and health-checks ring membership against the
// backends' drain-aware /v1/readyz.
package router

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over backend indices: each backend owns
// replicas virtual nodes placed by hashing "addr#i", and a key is served by
// the first virtual node clockwise from the key's own hash. Placement
// depends only on the member addresses, so every router instance fronting
// the same fleet computes the same assignment, and a membership change moves
// only the keys adjacent to the changed backend's virtual nodes — the
// property that keeps cache locality through rolling restarts.
type ring struct {
	vnodes []vnode // sorted by hash
}

type vnode struct {
	hash    uint64
	backend int
}

// newRing places replicas virtual nodes per backend address.
func newRing(addrs []string, replicas int) *ring {
	r := &ring{vnodes: make([]vnode, 0, len(addrs)*replicas)}
	for b, addr := range addrs {
		for i := 0; i < replicas; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", addr, i)), backend: b})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	return r
}

// hash64 is the ring's placement hash: the first 8 bytes of sha256, matching
// the fingerprints' own hash family so key distribution inherits its
// uniformity.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// pick walks clockwise from key's hash and returns the first backend that
// healthy reports true, or -1 when none does. Skipping unhealthy backends in
// the walk — rather than rebuilding the ring — keeps every healthy backend's
// keys exactly where they were, so a flapping shard disturbs only its own
// share of the key space.
func (r *ring) pick(key string, healthy func(int) bool) int {
	if len(r.vnodes) == 0 {
		return -1
	}
	h := hash64(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	seen := map[int]bool{}
	for i := 0; i < len(r.vnodes); i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if seen[v.backend] {
			continue
		}
		if healthy(v.backend) {
			return v.backend
		}
		seen[v.backend] = true
	}
	return -1
}
