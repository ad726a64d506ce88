// Package solvecache is the solve-reuse layer of the sweep engine: a
// content-addressed cache of per-bus CTMDP solutions, shared safely across
// the internal/parallel worker pool.
//
// Why this works: after the paper's buffer insertion, every bus is an
// independent linear subsystem, so a sweep (budgets × seeds × scenarios ×
// methodology iterations) re-solves many bit-identical sub-models. The cache
// keys each sub-model solve by a canonical fingerprint of what the solve
// reads (Fingerprint) — client order, bus names and buffer IDs are
// normalised away, and so are the capacity quanta, which neither the
// occupation-measure LP nor the policy-induced chain reads — and returns a
// stored solution rebound onto the requesting model. An entry keeps only
// the canonical model and its occupation measure: a hit derives the rest
// of the solution from the measure, and a miss solves the model's
// canonical clone cold and stores its measure. Budget points of a sweep
// therefore share their sub-model solves: they differ only in capacities.
//
// Capped programs (the occupancy cap links the blocks) are not cached: each
// is solved fresh on the canonical clones of its models, bus by bus under an
// occupancy price (ctmdp.SolveJoint; DESIGN.md §8).
//
// Determinism: a cached solution is a pure function of its fingerprint —
// misses solve a canonicalised copy of the model, and every model sharing
// the fingerprint has the same program bit for bit. Sweep results therefore
// do not depend on which worker populated the cache first, preserving the
// repo-wide "identical results for any worker count" contract. Every
// methodology run takes the same solve path: a run without a cache solves
// through a nil *Cache, which canonicalises, solves and rebinds every model
// exactly as a miss does. So a shared cache only saves work: a run gets the
// same answer without a cache as from one shared fleet-wide.
//
// Three tiers memoise whole decisions rather than sub-models: robust holds
// chance-constrained sizings, placement holds serialised placement results,
// and result holds serialised solve and budget-sweep results keyed by the
// engine's normalised request fingerprint — a result hit skips a repeated
// request's simulations and policy solves entirely.
//
// Only the robust and placement tiers are shared through an attached remote
// store (SetRemote; DESIGN.md §10): their hits replace whole runs lasting
// milliseconds to seconds. The exact tier stays local, because a remote
// round trip costs more than the sub-millisecond cold solve it would skip,
// and so does the result tier: request fingerprints carry no code version,
// and a router already keeps each fingerprint on one shard.
//
// Memory: every tier (exact, robust, placement, result) is one generic
// LRU-bounded store (tier.go). New builds an unbounded cache — a sweep's
// distinct sub-models number in the hundreds and an exact entry holds
// about a KB; NewBounded caps each tier at a fixed entry count for
// long-lived processes, evicting the least recently used entry. Eviction
// costs a recompute, never correctness, because payloads are pure
// functions of their keys.
package solvecache

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"socbuf/internal/arch"
	"socbuf/internal/ctmdp"
	"socbuf/internal/uncertain"
)

// Cache is a concurrency-safe, content-addressed store of solved sub-models.
// The zero value is NOT usable; call New or NewBounded. A nil *Cache is a
// valid "caching disabled" receiver for every tier method, SolveJoint and
// Stats.
type Cache struct {
	// exact keys sub-model entries by Fingerprint; its counters are the
	// Hits and Misses of Stats.
	exact     *tier[*entry] // local only: no remote tag
	robust    *tier[*RobustSolution]
	placement *tier[[]byte]          // deflated JSON (zip)
	result    *tier[json.RawMessage] // local only: no remote tag

	// zip deflates placement payloads on the way in and inflates them on
	// the way out (deflate.go).
	zip deflateCodec

	// capped counts capped programs solved (Stats.JointMisses).
	capped atomic.Int64

	// remote is the optional shared store behind the robust and placement
	// tiers (see SetRemote and remote.go).
	remote remote
}

// entry is one cached sub-model solution: the canonical model and its
// occupation measure, nothing more. The rest of a solution is a function
// of the two, so a hit derives it again with ctmdp.NewModelSolution, the
// code every cold solve derives it with, and gets the cold solve's bits.
// Entries are immutable after insertion; readers always rebind into
// freshly allocated slices.
type entry struct {
	model *ctmdp.Model // canonical clone (sorted clients, neutral names)
	x     []float64    // occupation measure aligned to model's enumeration
}

// New returns an empty, unbounded cache.
func New() *Cache { return NewBounded(0) }

// NewBounded returns an empty cache whose every tier holds at most max
// entries, evicting the least recently used one past that (0 = unbounded).
func NewBounded(max int) *Cache {
	c := &Cache{}
	r := &c.remote
	c.exact = &tier[*entry]{max: max}
	c.robust = &tier[*RobustSolution]{max: max, remote: r, tag: "robust", clone: (*RobustSolution).clone}
	// Placement and result payloads are the engine's serialised results.
	// Placement payloads are stored deflated: each deflate and inflate
	// makes a fresh slice, so the tier needs no clone. Result payloads are
	// carried verbatim, because hot-fleet reads them on every request.
	c.placement = &tier[[]byte]{max: max, remote: r, tag: "placement"}
	c.result = &tier[json.RawMessage]{max: max, clone: func(b json.RawMessage) json.RawMessage {
		return append(json.RawMessage(nil), b...)
	}}
	return c
}

// RobustSolution is one cached robust sizing: the chance-constrained
// backend's chosen allocation, its nominal-screen loss estimate, and the
// full chance-constraint report. Stored payloads are immutable; lookups
// return fresh allocation maps.
type RobustSolution struct {
	Alloc    map[string]int
	LossRate float64
	Report   uncertain.Report
}

// clone returns an aliasing-free copy (cached payloads never leak mutable
// state to callers — the same contract as the exact tier's rebind).
func (s *RobustSolution) clone() *RobustSolution {
	return &RobustSolution{Alloc: cloneAlloc(s.Alloc), LossRate: s.LossRate, Report: s.Report}
}

func cloneAlloc(alloc map[string]int) map[string]int {
	out := make(map[string]int, len(alloc))
	for id, u := range alloc {
		out[id] = u
	}
	return out
}

// LookupRobust fetches a cached robust sizing of the buffered architecture
// a at budget by its RobustFingerprint key, falling back to the attached
// remote store on a local miss. A remote payload is adopted only when it is
// a sizing of a at budget whose report is consistent with it
// (validRobust). A nil receiver (caching disabled) always misses without
// counting.
func (c *Cache) LookupRobust(k Key, a *arch.Architecture, budget int) (*RobustSolution, bool) {
	if c == nil {
		return nil, false
	}
	return c.robust.lookup(k, func(s *RobustSolution) bool { return validRobust(s, a, budget) })
}

// PutRobust stores one robust sizing under its RobustFingerprint key. The
// payload is copied in; concurrent duplicate stores of the same key are
// benign (robust solves are deterministic functions of the key). A nil
// receiver is a no-op.
func (c *Cache) PutRobust(k Key, s *RobustSolution) {
	if c == nil || s == nil {
		return
	}
	c.robust.put(k, s)
}

// LookupPlacement fetches a cached placement result by its
// PlacementFingerprint key. The payload is the engine's serialised
// placement result — opaque to this package (placement results are
// deterministic functions of the key, so byte-level storage is sound and
// keeps the dependency arrow pointing the right way). The tier holds it
// deflated; the returned bytes are the plain payload, in a fresh slice. A
// remote payload is adopted when it inflates to non-empty bytes; the
// engine, which owns the payload's schema, checks the rest. A nil receiver
// (caching disabled) always misses without counting.
func (c *Cache) LookupPlacement(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	z, ok := c.placement.lookup(k, func(z []byte) bool { return len(c.zip.inflate(z)) > 0 })
	if !ok {
		return nil, false
	}
	b := c.zip.inflate(z)
	return b, b != nil
}

// PutPlacement stores one serialised placement result under its
// PlacementFingerprint key, deflated. Concurrent duplicate stores are
// benign. A nil receiver, an empty payload and one larger than a remote
// store payload (maxStorePayload, far above any real placement result) are
// no-ops.
func (c *Cache) PutPlacement(k Key, b []byte) {
	if c == nil || len(b) == 0 || len(b) > maxStorePayload {
		return
	}
	c.placement.put(k, c.zip.deflate(b))
}

// LookupResult fetches a serialised request result by its key: the engine's
// normalised request fingerprint. The payload is opaque to this package,
// like a placement payload. The tier is local only, so a miss never
// consults the remote store. Returned bytes are a fresh copy. A nil
// receiver (caching disabled) always misses without counting.
func (c *Cache) LookupResult(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	return c.result.lookup(k, nil)
}

// PutResult stores one serialised request result under its key. The
// payload is copied in and never written to the remote store. A nil
// receiver or empty payload is a no-op.
func (c *Cache) PutResult(k Key, b []byte) {
	if c == nil || len(b) == 0 {
		return
	}
	c.result.put(k, b)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts sub-model solves answered from the cache.
	Hits int64
	// WarmStarts stays 0. It is kept, with JointHits and JointEntries, only
	// until the end-to-end benchmark's next change, since the benchmark
	// reads all three.
	WarmStarts int64
	// Misses counts cold sub-model solves.
	Misses int64
	// JointMisses counts capped programs solved (the occupancy-cap linked
	// programs, which are never cached). JointHits stays 0 (see WarmStarts).
	JointHits, JointMisses int64
	// AnalyticHits and AnalyticMisses stay 0, and so does AnalyticEntries:
	// analytic sizings are recomputed, never cached, because the key cost
	// about as much as the sizing. They are kept only until the end-to-end
	// benchmark's next change, like WarmStarts.
	AnalyticHits, AnalyticMisses int64
	// RobustHits / RobustMisses count robust-tier lookups — whole
	// chance-constrained sizings, keyed by RobustFingerprint in their own
	// backend-tagged key space.
	RobustHits, RobustMisses int64
	// PlacementHits / PlacementMisses count placement-tier lookups — whole
	// placement runs (frontier + chosen), keyed by PlacementFingerprint.
	PlacementHits, PlacementMisses int64
	// ResultHits / ResultMisses count result-tier lookups — whole solve and
	// budget-sweep answers, keyed by the engine's request fingerprint. A
	// result hit reaches no other tier, so it moves no other counter.
	ResultHits, ResultMisses int64
	// RemoteHits / RemoteMisses count consults of the attached remote store
	// (SetRemote): payloads adopted vs consults that came back empty or
	// undecodable. A remote hit additionally counts as a hit of its home
	// tier, so home-tier rates reflect what the engine got regardless of
	// source. Both stay zero when no store is attached.
	RemoteHits, RemoteMisses int64
	// Entries / RobustEntries / PlacementEntries / ResultEntries are the
	// stored solution counts per tier. JointEntries and AnalyticEntries stay
	// 0 (see WarmStarts and AnalyticHits).
	Entries, JointEntries, AnalyticEntries, RobustEntries, PlacementEntries, ResultEntries int
}

// Add accumulates o's counters and entry counts into s — the one list of
// Stats fields a fleet-wide merge must cover (TestStatsAdd pins it).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.WarmStarts += o.WarmStarts
	s.Misses += o.Misses
	s.JointHits += o.JointHits
	s.JointMisses += o.JointMisses
	s.AnalyticHits += o.AnalyticHits
	s.AnalyticMisses += o.AnalyticMisses
	s.RobustHits += o.RobustHits
	s.RobustMisses += o.RobustMisses
	s.PlacementHits += o.PlacementHits
	s.PlacementMisses += o.PlacementMisses
	s.ResultHits += o.ResultHits
	s.ResultMisses += o.ResultMisses
	s.RemoteHits += o.RemoteHits
	s.RemoteMisses += o.RemoteMisses
	s.Entries += o.Entries
	s.JointEntries += o.JointEntries
	s.AnalyticEntries += o.AnalyticEntries
	s.RobustEntries += o.RobustEntries
	s.PlacementEntries += o.PlacementEntries
	s.ResultEntries += o.ResultEntries
}

// Rates derives per-tier hit rates from the counters, keyed by tier name.
// Only tiers that saw traffic appear, so an operator reading `/v1/stats` or a
// `-cache-stats` table sees rates exactly for the tiers the run exercised:
//
//	exact       Hits / (Hits + Misses) — hits over all sub-model lookups
//	robust, placement, result — hits / (hits + misses) of that tier
//	remote      RemoteHits / (RemoteHits + RemoteMisses) — adopted payloads
//	            over all remote consults
func (s Stats) Rates() map[string]float64 {
	rates := map[string]float64{}
	add := func(name string, num, den int64) {
		if den > 0 {
			rates[name] = float64(num) / float64(den)
		}
	}
	add("exact", s.Hits, s.Hits+s.Misses)
	add("robust", s.RobustHits, s.RobustHits+s.RobustMisses)
	add("placement", s.PlacementHits, s.PlacementHits+s.PlacementMisses)
	add("result", s.ResultHits, s.ResultHits+s.ResultMisses)
	add("remote", s.RemoteHits, s.RemoteHits+s.RemoteMisses)
	return rates
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:             c.exact.hits.Load(),
		Misses:           c.exact.misses.Load(),
		JointMisses:      c.capped.Load(),
		RobustHits:       c.robust.hits.Load(),
		RobustMisses:     c.robust.misses.Load(),
		PlacementHits:    c.placement.hits.Load(),
		PlacementMisses:  c.placement.misses.Load(),
		ResultHits:       c.result.hits.Load(),
		ResultMisses:     c.result.misses.Load(),
		RemoteHits:       c.remote.hits.Load(),
		RemoteMisses:     c.remote.misses.Load(),
		Entries:          c.exact.len(),
		RobustEntries:    c.robust.len(),
		PlacementEntries: c.placement.len(),
		ResultEntries:    c.result.len(),
	}
}

// HitCount sums the hit counters of the tiers a methodology run reads —
// exact and robust — without locking or scanning, so callers can diff it
// around a run. A nil receiver reports 0.
func (c *Cache) HitCount() int64 {
	if c == nil {
		return 0
	}
	return c.exact.hits.Load() + c.robust.hits.Load()
}

// canonicalModel clones m with clients in canonical order under neutral
// names, stripped of aggregate membership — the solve-relevant content only.
// order is canonicalOrder(m).
func canonicalModel(m *ctmdp.Model, order []int) (*ctmdp.Model, error) {
	clients := make([]ctmdp.Client, len(order))
	for k, i := range order {
		cl := m.Clients[i]
		cl.BufferID = fmt.Sprintf("c%d", k)
		cl.Members, cl.MemberLambda = nil, nil
		clients[k] = cl
	}
	return ctmdp.NewModel("sub", m.ServiceRate, clients)
}

// matches sanity-checks a candidate entry against the requesting model's
// canonical view before rebinding: same client count, service rate and
// fingerprinted tuples. Guards against (astronomically unlikely) hash
// collisions and any drift in the canonicalisation.
func (e *entry) matches(m *ctmdp.Model, order []int) bool {
	if len(e.model.Clients) != len(m.Clients) || e.model.ServiceRate != m.ServiceRate {
		return false
	}
	for k, i := range order {
		a, b := keyOf(e.model.Clients[k]), keyOf(m.Clients[i])
		a.unitsPerLevel, b.unitsPerLevel = 0, 0
		if a != b {
			return false
		}
	}
	return true
}

// rebind maps a solution of m's canonical clone (canonicalModel) onto m:
// states, occupation variables and policy rows are permuted from canonical
// client order back to the model's own order, into fresh allocations
// (cached payloads are never aliased out). order is canonicalOrder(m).
func rebind(cs *ctmdp.ModelSolution, m *ctmdp.Model, order []int) (*ctmdp.ModelSolution, error) {
	cm := cs.Model
	nc := len(m.Clients)
	// cpos[c] = canonical position of the model's client c.
	cpos := make([]int, nc)
	for k, i := range order {
		cpos[i] = k
	}
	n := m.NumStates()
	ms := &ctmdp.ModelSolution{
		Model:     m,
		X:         make([]float64, m.NumVars()),
		StateProb: make([]float64, n),
		LossRate:  cs.LossRate, // cost rates are capacity- and order-invariant
		Policy:    ctmdp.NewPolicy(m),
	}
	clevels := make([]int, nc)
	for s := 0; s < n; s++ {
		for c := 0; c < nc; c++ {
			clevels[cpos[c]] = m.Level(s, c)
		}
		cst, err := cm.StateOf(clevels)
		if err != nil {
			return nil, fmt.Errorf("solvecache: rebind state %d: %w", s, err)
		}
		ms.StateProb[s] = cs.StateProb[cst]
		row := ms.Policy.ActionProb[s]
		for c := range row {
			row[c] = cs.Policy.ActionProb[cst][cpos[c]]
		}
		ms.Policy.Visited[s] = cs.Policy.Visited[cst]
		for _, v := range m.StateVars(s) {
			_, a := m.VarStateAction(v)
			ca := -1
			if a >= 0 {
				ca = cpos[a]
			}
			cv, ok := cm.VarIndex(cst, ca)
			if !ok {
				return nil, fmt.Errorf("solvecache: rebind: canonical model lacks var (state %d, action %d)", cst, ca)
			}
			ms.X[v] = cs.X[cv]
		}
	}
	return ms, nil
}
