package solvecache

import (
	"encoding/json"
	"math"
	"sync/atomic"

	"socbuf/internal/arch"
)

// This file is the cache side of the shared remote tier: how the robust and
// placement tiers consult an attached Store on a local miss, and how freshly
// computed payloads are written behind. Those two tiers alone are shared
// because their hits replace whole runs lasting milliseconds to seconds;
// exact sub-model solves and analytic sizings cost less to recompute than a
// remote round trip, and results stay local (DESIGN.md §10). The
// serialisation contract:
//
//   - A remote payload is a pure function of its key, exactly like a local
//     entry: the numbers any peer stores under a key are bit-identical to
//     the numbers every other peer would store, so adopting a remote payload
//     can never change a result — only skip a recompute.
//   - Payloads are JSON envelopes tagged with their tier. Keys are already
//     version- and backend-tagged (a peer on another fingerprint version
//     computes disjoint keys), and the HTTP layer additionally version-tags
//     every response; the tier tag inside the envelope is the final guard
//     against a store wired across incompatible fleets.
//   - Every payload is checked before it is adopted; an undecodable or
//     inconsistent payload is a miss, never an error — a poisoned peer can
//     cost recomputes, not correctness.
//   - Robust payloads must be sizings of the architecture and budget the
//     lookup names (validRobust).
//   - Placement payloads are the engine's serialised results, opaque here
//     and deflated (deflate.go), so the envelope carries them as a base64
//     JSON string. One is adopted only if it inflates to non-empty bytes;
//     the engine checks those against the request.

// remote is a cache's attachment point for the shared store: the store
// itself (nil = none) and the adoption counters every remote-enabled tier
// shares. remote.hits counts payloads adopted, remote.misses consults that
// came back empty or undecodable; both stay zero when no store is attached.
type remote struct {
	store        Store
	hits, misses atomic.Int64
}

// remoteEnvelope wraps every remote payload in its tier tag.
type remoteEnvelope struct {
	Tier string          `json:"tier"`
	Data json.RawMessage `json:"data"`
}

// validRobust reports whether s can be a robust sizing of the buffered
// architecture a at budget: the allocation passes arch.Allocation.Validate,
// the loss rate is finite and non-negative, the report's yields lie in
// [0, 1], and its BudgetUsed is the allocation's total.
func validRobust(s *RobustSolution, a *arch.Architecture, budget int) bool {
	if s == nil || arch.Allocation(s.Alloc).Validate(a, budget) != nil ||
		!(s.LossRate >= 0) || math.IsInf(s.LossRate, 1) {
		return false
	}
	r := s.Report
	for _, y := range []float64{r.Yield, r.YieldLow, r.NominalYield} {
		if !(y >= 0 && y <= 1) {
			return false
		}
	}
	return r.BudgetUsed == arch.Allocation(s.Alloc).Total()
}

// SetRemote attaches (or, with nil, detaches) the shared remote store. The
// robust and placement tiers consult it on local misses and write freshly
// computed payloads behind it; no other tier touches it. Attach before
// solving; swapping mid-flight is not synchronised. A nil receiver is a
// no-op.
func (c *Cache) SetRemote(s Store) {
	if c == nil {
		return
	}
	c.remote.store = s
}

// fetch consults the remote store for k's payload. Absent, mistagged and
// undecodable payloads, and those valid rejects, are remote misses; only an
// adoptable payload counts as a remote hit. A local-only tier, or a cache
// without a store, never consults (nor counts).
func (t *tier[V]) fetch(k Key, valid func(V) bool) (V, bool) {
	var v V
	if t.tag == "" || t.remote.store == nil {
		return v, false
	}
	if b, ok := t.remote.store.Get(nil, k); ok {
		var env remoteEnvelope
		if json.Unmarshal(b, &env) == nil && env.Tier == t.tag &&
			json.Unmarshal(env.Data, &v) == nil && valid(v) {
			t.remote.hits.Add(1)
			return v, true
		}
	}
	t.remote.misses.Add(1)
	var zero V // v may hold a partly decoded payload
	return zero, false
}

// writeBehind stores v's tier-tagged envelope in the remote store (best
// effort: an unencodable payload is simply not shared).
func (t *tier[V]) writeBehind(k Key, v V) {
	if t.tag == "" || t.remote.store == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	b, err := json.Marshal(remoteEnvelope{Tier: t.tag, Data: data})
	if err != nil {
		return
	}
	t.remote.store.Put(nil, k, b)
}
