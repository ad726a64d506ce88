// Package solvecache is the solve-reuse layer of the sweep engine: a
// content-addressed cache of per-bus CTMDP solutions, shared safely across
// the internal/parallel worker pool, plus warm-started re-solves for the
// cache misses that are "near" a cached solution.
//
// Why this works: after the paper's buffer insertion, every bus is an
// independent linear subsystem, so a sweep (budgets × seeds × scenarios ×
// methodology iterations) re-solves many bit-identical sub-models. The cache
// keys each sub-model solve by a canonical fingerprint of its mathematical
// content (Fingerprint) — client order, bus names and buffer IDs are
// normalised away — and returns a stored solution rebound onto the
// requesting model. Two tiers:
//
//   - exact hits: the full fingerprint (capacities included) matches; the
//     cached solution is returned outright.
//   - warm starts: only the capacity quanta differ (StructuralFingerprint
//     matches). Capacities do not appear in the occupation-measure LP or the
//     policy-induced chain, so the cached solution is exact for the new
//     model too; occupancy-derived quantities are recomputed from the
//     requesting model. This is the "solve seeded from the nearest cached
//     solution" fast path, and it converges in zero iterations by
//     construction. Genuinely different models (rates changed) miss and
//     solve cold.
//
// Capped joint programs (the occupancy cap links the blocks) are cached
// whole under JointFingerprint. A joint miss is one LP solve warm-started
// from the blocks' cached cap-free bases (ctmdp.JointConfig.WarmBasis),
// else cold, and its stationary refinement is seeded from the cached free
// solutions (the warm prior of ctmdp's RefineStationary; DESIGN.md §8).
//
// Determinism: a cached payload is a pure function of its fingerprint — cold
// misses solve a canonicalised copy of the model, and warm reuse is
// bit-identical to what that canonical cold solve would produce (the
// programs are the same bits). Sweep results therefore do not depend on
// which worker populated the cache first, preserving the repo-wide
// "identical results for any worker count" contract. Every methodology run
// solves through a cache — core gives a run without one a private cache —
// so a shared cache only saves work: a run gets the same answer from a
// private cache as from one shared fleet-wide.
//
// Two tiers memoise whole answers rather than sub-models: placement holds
// serialised placement results, and result holds serialised solve and
// budget-sweep results keyed by the engine's normalised request fingerprint,
// so a repeated request skips its simulations and LP solves entirely. The
// result tier is local-only: request fingerprints carry no code version, and
// a router already keeps each fingerprint on one shard (DESIGN.md §10).
//
// Memory: every tier (exact, structural, joint, analytic, robust,
// placement, result) is one generic LRU-bounded store (tier.go). New builds an
// unbounded cache — a sweep's distinct sub-models number in the hundreds
// and payloads are a few KB each; NewBounded caps each tier at a fixed
// entry count for long-lived processes, evicting the least recently used
// entry. Eviction costs a recompute, never correctness, because payloads
// are pure functions of their keys.
package solvecache

import (
	"encoding/json"
	"fmt"

	"socbuf/internal/ctmdp"
	"socbuf/internal/lp"
	"socbuf/internal/uncertain"
)

// Cache is a concurrency-safe, content-addressed store of solved sub-models.
// The zero value is NOT usable; call New or NewBounded. A nil *Cache is a
// valid "caching disabled" receiver for every tier method and Stats, but not
// for SolveJoint.
type Cache struct {
	// exact keys sub-model entries by full fingerprint, structural by
	// structural fingerprint (the warm-start siblings); both hold the same
	// *entry values. Their counters are the Hits (exact.hits), WarmStarts
	// (structural.hits) and Misses (exact.misses) of Stats.
	exact, structural *tier[*entry]
	joint             *tier[*jointEntry]
	analytic          *tier[*AnalyticSolution]
	robust            *tier[*RobustSolution]
	placement         *tier[json.RawMessage]
	result            *tier[json.RawMessage] // local only: no remote tag

	// remote is the optional shared store behind the exact/analytic/robust/
	// placement tiers (see SetRemote and remote.go).
	remote remote
}

// entry is one cached sub-model solution, aligned to its canonical model.
// Entries are immutable after insertion; readers always rebind into freshly
// allocated slices.
type entry struct {
	model *ctmdp.Model         // canonical clone (sorted clients, neutral names)
	sol   *ctmdp.ModelSolution // payload aligned to model's enumeration
	iters int                  // simplex pivots of the cold solve (informational)
	// basis is the free solve's final LP basis — the strong warm-start seed
	// for re-solving the same balance system under an occupancy cap.
	basis []lp.BasicRef
}

// jointEntry is one cached capped joint solve. Like all hit paths, assembled
// hits report Iters=0 — the field counts pivots actually performed.
type jointEntry struct {
	entries    []*entry
	totalLoss  float64
	occUsed    float64
	capBinding bool
}

// New returns an empty, unbounded cache.
func New() *Cache { return NewBounded(0) }

// NewBounded returns an empty cache whose every tier holds at most max
// entries, evicting the least recently used one past that (0 = unbounded).
func NewBounded(max int) *Cache {
	c := &Cache{}
	r := &c.remote
	c.exact = &tier[*entry]{max: max, remote: r, tag: "exact",
		valid: func(e *entry) bool { return e != nil }}
	c.structural = &tier[*entry]{max: max}
	c.joint = &tier[*jointEntry]{max: max}
	c.analytic = &tier[*AnalyticSolution]{max: max, remote: r, tag: "analytic", clone: (*AnalyticSolution).clone,
		valid: func(s *AnalyticSolution) bool { return s != nil && s.Alloc != nil }}
	c.robust = &tier[*RobustSolution]{max: max, remote: r, tag: "robust", clone: (*RobustSolution).clone,
		valid: func(s *RobustSolution) bool { return s != nil && s.Alloc != nil }}
	// Placement and result payloads are the engine's serialised results,
	// carried verbatim.
	cloneRaw := func(b json.RawMessage) json.RawMessage { return append(json.RawMessage(nil), b...) }
	c.placement = &tier[json.RawMessage]{max: max, remote: r, tag: "placement", clone: cloneRaw,
		valid: func(b json.RawMessage) bool { return len(b) > 0 }}
	c.result = &tier[json.RawMessage]{max: max, clone: cloneRaw}
	return c
}

// AnalyticSolution is one cached analytic sizing: the closed-form backend's
// chosen allocation and its weighted loss-rate estimate. Stored payloads are
// immutable; lookups return fresh allocation maps.
type AnalyticSolution struct {
	Alloc    map[string]int
	LossRate float64
}

// clone returns an aliasing-free copy (cached payloads never leak mutable
// state to callers — the same contract as the exact tiers' rebind).
func (s *AnalyticSolution) clone() *AnalyticSolution {
	return &AnalyticSolution{Alloc: cloneAlloc(s.Alloc), LossRate: s.LossRate}
}

// LookupAnalytic fetches a cached analytic sizing by its
// AnalyticFingerprint key, falling back to the attached remote store on a
// local miss (an adopted remote payload is stored locally and counts as
// both an analytic and a remote hit). A nil receiver (caching disabled)
// always misses without counting.
func (c *Cache) LookupAnalytic(k Key) (*AnalyticSolution, bool) {
	if c == nil {
		return nil, false
	}
	return c.analytic.lookup(k)
}

// PutAnalytic stores one analytic sizing under its AnalyticFingerprint key.
// The payload is copied in; concurrent duplicate stores of the same key are
// benign (analytic solves are deterministic functions of the key). A nil
// receiver is a no-op.
func (c *Cache) PutAnalytic(k Key, s *AnalyticSolution) {
	if c == nil || s == nil {
		return
	}
	c.analytic.put(k, s)
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

// clone returns an aliasing-free copy, matching the analytic tier's
// contract.
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

// LookupRobust fetches a cached robust sizing by its RobustFingerprint
// key, falling back to the attached remote store on a local miss. A nil
// receiver (caching disabled) always misses without counting.
func (c *Cache) LookupRobust(k Key) (*RobustSolution, bool) {
	if c == nil {
		return nil, false
	}
	return c.robust.lookup(k)
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
// keeps the dependency arrow pointing the right way). Returned bytes are a
// fresh copy. A nil receiver (caching disabled) always misses without
// counting.
func (c *Cache) LookupPlacement(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	return c.placement.lookup(k)
}

// PutPlacement stores one serialised placement result under its
// PlacementFingerprint key. The payload is copied in; concurrent duplicate
// stores are benign. A nil receiver or empty payload is a no-op.
func (c *Cache) PutPlacement(k Key, b []byte) {
	if c == nil || len(b) == 0 {
		return
	}
	c.placement.put(k, b)
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
	return c.result.lookup(k)
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
	// Hits counts sub-model solves answered by an exact fingerprint match.
	Hits int64
	// WarmStarts counts solves answered through a structural match (only
	// capacities differed from a cached solution).
	WarmStarts int64
	// Misses counts cold sub-model solves.
	Misses int64
	// JointHits / JointMisses count capped joint solves (the occupancy-cap
	// linked programs, cached at whole-program granularity).
	JointHits, JointMisses int64
	// AnalyticHits / AnalyticMisses count analytic-tier lookups — the
	// closed-form backend's sizing cache, keyed in a backend-tagged key
	// space disjoint from every exact fingerprint.
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
	// Entries / JointEntries / AnalyticEntries / RobustEntries /
	// PlacementEntries / ResultEntries are the stored solution counts per
	// tier. Entries counts distinct exact-tier solutions (warm-start
	// promotion files one solution under several keys), so it never exceeds
	// the tier's key count — nor, therefore, its NewBounded bound.
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
//	exact       Hits / (Hits + WarmStarts + Misses) — full-fingerprint hits
//	            over all sub-model lookups
//	structural  WarmStarts / (WarmStarts + Misses) — how often a non-exact
//	            lookup was still answered by a structural sibling
//	joint       JointHits / (JointHits + JointMisses)
//	analytic, robust, placement, result — hits / (hits + misses) of that
//	            tier
//	remote      RemoteHits / (RemoteHits + RemoteMisses) — adopted payloads
//	            over all remote consults
func (s Stats) Rates() map[string]float64 {
	rates := map[string]float64{}
	add := func(name string, num, den int64) {
		if den > 0 {
			rates[name] = float64(num) / float64(den)
		}
	}
	add("exact", s.Hits, s.Hits+s.WarmStarts+s.Misses)
	add("structural", s.WarmStarts, s.WarmStarts+s.Misses)
	add("joint", s.JointHits, s.JointHits+s.JointMisses)
	add("analytic", s.AnalyticHits, s.AnalyticHits+s.AnalyticMisses)
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
	distinct := map[*entry]struct{}{}
	c.exact.each(func(e *entry) { distinct[e] = struct{}{} })
	return Stats{
		Hits:             c.exact.hits.Load(),
		WarmStarts:       c.structural.hits.Load(),
		Misses:           c.exact.misses.Load(),
		JointHits:        c.joint.hits.Load(),
		JointMisses:      c.joint.misses.Load(),
		AnalyticHits:     c.analytic.hits.Load(),
		AnalyticMisses:   c.analytic.misses.Load(),
		RobustHits:       c.robust.hits.Load(),
		RobustMisses:     c.robust.misses.Load(),
		PlacementHits:    c.placement.hits.Load(),
		PlacementMisses:  c.placement.misses.Load(),
		ResultHits:       c.result.hits.Load(),
		ResultMisses:     c.result.misses.Load(),
		RemoteHits:       c.remote.hits.Load(),
		RemoteMisses:     c.remote.misses.Load(),
		Entries:          len(distinct),
		JointEntries:     c.joint.len(),
		AnalyticEntries:  c.analytic.len(),
		RobustEntries:    c.robust.len(),
		PlacementEntries: c.placement.len(),
		ResultEntries:    c.result.len(),
	}
}

// HitCount sums the hit counters of the tiers a methodology run reads —
// exact, warm-start, joint, analytic and robust — without locking or
// scanning, so callers can diff it around a run. A nil receiver reports 0.
func (c *Cache) HitCount() int64 {
	if c == nil {
		return 0
	}
	return c.exact.hits.Load() + c.structural.hits.Load() + c.joint.hits.Load() +
		c.analytic.hits.Load() + c.robust.hits.Load()
}

// lookup fetches the entry for the full key, or a structural sibling. The
// second return distinguishes exact (true) from warm (false) on success.
func (c *Cache) lookup(full, structural Key) (*entry, bool) {
	if e, ok := c.exact.get(full); ok {
		return e, true
	}
	e, _ := c.structural.get(structural)
	return e, false
}

// put stores e locally under both keys. Concurrent duplicate solves of the
// same fingerprint store bit-identical payloads, so last-write-wins is
// benign.
func (c *Cache) put(full, structural Key, e *entry) {
	c.exact.add(full, e)
	c.structural.add(structural, e)
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

// rebindBasis maps the entry's canonical-program basis onto the requesting
// model's enumeration: structural refs are permuted var-for-var, balance-row
// refs state-for-state (the canonical single-model program lays out one
// balance row per state, in state order, then the normalisation row). The
// result is a valid basis for a program assembled over the requesting model.
func (e *entry) rebindBasis(m *ctmdp.Model, order []int) ([]lp.BasicRef, error) {
	if e.basis == nil {
		return nil, nil
	}
	nc := len(m.Clients)
	n := m.NumStates()
	cpos := make([]int, nc)
	for k, i := range order {
		cpos[i] = k
	}
	stateMap := make([]int, n) // canonical state -> requesting state
	varMap := make([]int, len(e.sol.X))
	clevels := make([]int, nc)
	for s := 0; s < n; s++ {
		for c := 0; c < nc; c++ {
			clevels[cpos[c]] = m.Level(s, c)
		}
		cs, err := e.model.StateOf(clevels)
		if err != nil {
			return nil, fmt.Errorf("solvecache: rebind basis state %d: %w", s, err)
		}
		stateMap[cs] = s
		for _, v := range m.StateVars(s) {
			_, a := m.VarStateAction(v)
			ca := -1
			if a >= 0 {
				ca = cpos[a]
			}
			cv, ok := e.model.VarIndex(cs, ca)
			if !ok {
				return nil, fmt.Errorf("solvecache: rebind basis: canonical model lacks var (state %d, action %d)", cs, ca)
			}
			varMap[cv] = v
		}
	}
	out := make([]lp.BasicRef, len(e.basis))
	for i, ref := range e.basis {
		switch {
		case ref.Var >= 0:
			if ref.Var >= len(varMap) {
				return nil, fmt.Errorf("solvecache: rebind basis: var ref %d out of range", ref.Var)
			}
			ref.Var = varMap[ref.Var]
		case ref.Row < n:
			ref.Row = stateMap[ref.Row]
		}
		// The normalisation row (index n) stays where it is.
		out[i] = ref
	}
	return out, nil
}

// matches sanity-checks a candidate entry against the requesting model's
// canonical view before rebinding: same client count, service rate and
// structural tuples. Guards against (astronomically unlikely) hash
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

// rebind maps the entry's canonical solution onto the requesting model:
// states, occupation variables and policy rows are permuted from canonical
// client order back to the model's own order, into fresh allocations (cached
// payloads are never aliased out). order is canonicalOrder(m).
func (e *entry) rebind(m *ctmdp.Model, order []int) (*ctmdp.ModelSolution, error) {
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
		LossRate:  e.sol.LossRate, // cost rates are capacity- and order-invariant
	}
	pol := &ctmdp.Policy{
		Model:      m,
		ActionProb: make([][]float64, n),
		Visited:    make([]bool, n),
	}
	clevels := make([]int, nc)
	for s := 0; s < n; s++ {
		for c := 0; c < nc; c++ {
			clevels[cpos[c]] = m.Level(s, c)
		}
		cs, err := e.model.StateOf(clevels)
		if err != nil {
			return nil, fmt.Errorf("solvecache: rebind state %d: %w", s, err)
		}
		ms.StateProb[s] = e.sol.StateProb[cs]
		row := make([]float64, nc)
		for c := 0; c < nc; c++ {
			row[c] = e.sol.Policy.ActionProb[cs][cpos[c]]
		}
		pol.ActionProb[s] = row
		pol.Visited[s] = e.sol.Policy.Visited[cs]
		for _, v := range m.StateVars(s) {
			_, a := m.VarStateAction(v)
			ca := -1
			if a >= 0 {
				ca = cpos[a]
			}
			cv, ok := e.model.VarIndex(cs, ca)
			if !ok {
				return nil, fmt.Errorf("solvecache: rebind: canonical model lacks var (state %d, action %d)", cs, ca)
			}
			ms.X[v] = e.sol.X[cv]
		}
	}
	ms.Policy = pol
	return ms, nil
}
