package solvecache

import (
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"

	"socbuf/internal/arch"
	"socbuf/internal/ctmdp"
)

// This file is the cache side of the shared remote tier: how local tiers
// consult an attached Store on a local miss, and how freshly computed
// payloads are written behind. The serialisation contract (DESIGN.md §10):
//
//   - A remote payload is a pure function of its key, exactly like a local
//     entry: the numbers any peer stores under a key are bit-identical to
//     the numbers every other peer would store, so adopting a remote payload
//     can never change a result — only skip a recompute. (An exact payload's
//     canonical model also records the capacity quanta of the model first
//     solved under its key; nothing reads them.)
//   - Payloads are JSON envelopes tagged with their tier. Keys are already
//     version- and backend-tagged (a peer on another fingerprint version
//     computes disjoint keys), and the HTTP layer additionally version-tags
//     every response; the tier tag inside the envelope is the final guard
//     against a store wired across incompatible fleets.
//   - Every payload is checked before it is adopted; an undecodable or
//     inconsistent payload is a miss, never an error — a poisoned peer can
//     cost recomputes, not correctness.
//   - Exact-tier payloads carry the canonical model and solution. Decoding
//     validates every dimension against the reconstructed model and every
//     value the methodology reads as a probability: occupation measures and
//     state probabilities lie in [0, 1], state probabilities sum to 1, and
//     each visited policy row is a distribution. The model must then match
//     the requesting one.
//   - Analytic and robust payloads must be sizings of the architecture and
//     budget the lookup names (validSizing, validRobust).
//   - Placement payloads are the engine's serialised results, opaque here;
//     the engine checks them against the request.

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

// exactPayload is the wire form of one exact-tier entry: the canonical
// model's reconstruction inputs plus the solution aligned to it.
type exactPayload struct {
	ServiceRate float64        `json:"serviceRate"`
	Clients     []ctmdp.Client `json:"clients"`
	X           []float64      `json:"x"`
	StateProb   []float64      `json:"stateProb"`
	LossRate    float64        `json:"lossRate"`
	ActionProb  [][]float64    `json:"actionProb"`
	Visited     []bool         `json:"visited"`
	Iters       int            `json:"iters"`
}

// MarshalJSON is the wire form of one exact-tier entry.
func (e *entry) MarshalJSON() ([]byte, error) {
	return json.Marshal(exactPayload{
		ServiceRate: e.model.ServiceRate,
		Clients:     e.model.Clients,
		X:           e.sol.X,
		StateProb:   e.sol.StateProb,
		LossRate:    e.sol.LossRate,
		ActionProb:  e.sol.Policy.ActionProb,
		Visited:     e.sol.Policy.Visited,
		Iters:       e.iters,
	})
}

// UnmarshalJSON reconstructs an exact-tier entry from its wire form,
// validating every dimension against the rebuilt canonical model. Any
// inconsistency is an error (the tier treats it as a remote miss).
func (e *entry) UnmarshalJSON(data []byte) error {
	var p exactPayload
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	m, err := ctmdp.NewModel("sub", p.ServiceRate, p.Clients)
	if err != nil {
		return fmt.Errorf("solvecache: remote exact payload: %w", err)
	}
	n := m.NumStates()
	if len(p.X) != m.NumVars() || len(p.StateProb) != n || len(p.ActionProb) != n || len(p.Visited) != n {
		return fmt.Errorf("solvecache: remote exact payload dimensions do not match model")
	}
	for _, row := range p.ActionProb {
		if len(row) != len(p.Clients) {
			return fmt.Errorf("solvecache: remote exact payload policy row width mismatch")
		}
	}
	if err := p.checkValues(m); err != nil {
		return fmt.Errorf("solvecache: remote exact payload: %w", err)
	}
	e.model, e.iters = m, p.Iters
	e.sol = &ctmdp.ModelSolution{
		Model:     m,
		X:         p.X,
		StateProb: p.StateProb,
		LossRate:  p.LossRate,
		Policy: &ctmdp.Policy{
			Model:      m,
			ActionProb: p.ActionProb,
			Visited:    p.Visited,
		},
	}
	return nil
}

// Tolerances of checkValues: how far roundoff may take a genuine payload's
// probability past [0, 1], and its distributions' sums away from 1.
const (
	payloadValueTol = 1e-7
	payloadSumTol   = 1e-6
)

// checkValues rejects a dimension-checked payload whose numbers cannot be
// an occupation measure of m: an x or stateProb entry outside [0, 1],
// stateProb not summing to 1, or a visited state's policy row that is not a
// distribution. The row of the all-empty state, whose only action is idling,
// grants nobody and sums to 0. Downstream code reads these numbers as
// probabilities, so a payload that breaks them could fail a later solve.
func (p *exactPayload) checkValues(m *ctmdp.Model) error {
	inRange := func(v float64) bool { return v >= -payloadValueTol && v <= 1+payloadValueTol }
	for _, v := range p.X {
		if !inRange(v) {
			return fmt.Errorf("occupation measure entry %g outside [0, 1]", v)
		}
	}
	var mass float64
	for _, v := range p.StateProb {
		if !inRange(v) {
			return fmt.Errorf("state probability %g outside [0, 1]", v)
		}
		mass += v
	}
	if math.Abs(mass-1) > payloadSumTol {
		return fmt.Errorf("state probabilities sum to %g", mass)
	}
	for s, row := range p.ActionProb {
		if !p.Visited[s] {
			continue
		}
		want := 1.0
		if _, idle := m.VarIndex(s, -1); idle {
			want = 0
		}
		var sum float64
		for _, v := range row {
			if !inRange(v) {
				return fmt.Errorf("state %d: policy entry %g outside [0, 1]", s, v)
			}
			sum += v
		}
		if math.Abs(sum-want) > payloadSumTol {
			return fmt.Errorf("state %d: policy row sums to %g, want %g", s, sum, want)
		}
	}
	return nil
}

// validSizing reports whether alloc and loss can be a sizing of the
// buffered architecture a at budget: the allocation passes
// arch.Allocation.Validate, and the loss rate is finite and non-negative.
func validSizing(alloc map[string]int, loss float64, a *arch.Architecture, budget int) bool {
	return arch.Allocation(alloc).Validate(a, budget) == nil && loss >= 0 && !math.IsInf(loss, 1)
}

// validRobust reports whether s can be a robust sizing of a at budget: a
// valid sizing whose report's yields lie in [0, 1] and whose BudgetUsed is
// the allocation's total.
func validRobust(s *RobustSolution, a *arch.Architecture, budget int) bool {
	if s == nil || !validSizing(s.Alloc, s.LossRate, a, budget) {
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

// SetRemote attaches (or, with nil, detaches) the shared remote store. Local
// tiers consult it on local misses and write freshly computed payloads
// behind it. Attach before solving; swapping mid-flight is not synchronised.
// A nil receiver is a no-op.
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
