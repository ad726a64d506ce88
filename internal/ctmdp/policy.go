package ctmdp

import (
	"fmt"
	"sort"
	"strings"
)

// randTol: an action needs at least this much conditional probability before
// the state counts as randomised (filters roundoff).
const randTol = 1e-6

// Policy is a stationary arbitration policy for one subsystem: a distribution
// over grant actions per state. States never visited under the optimal
// measure (StateProb ≈ 0) fall back to longest-queue at decision time.
type Policy struct {
	Model *Model
	// ActionProb[s][c] is the conditional probability of granting client c
	// in state s. Rows of unvisited states are all zero.
	ActionProb [][]float64
	// Visited[s] reports whether state s carries stationary mass.
	Visited []bool
}

// extractPolicy converts an occupation measure into the conditional policy
// φ(a|s) = x(s,a)/Σ_a' x(s,a').
func extractPolicy(m *Model, x []float64) *Policy {
	p := &Policy{
		Model:      m,
		ActionProb: make([][]float64, m.numStates),
		Visited:    make([]bool, m.numStates),
	}
	for s := 0; s < m.numStates; s++ {
		p.ActionProb[s] = make([]float64, len(m.Clients))
		var mass float64
		for _, v := range m.varsByState[s] {
			mass += x[v]
		}
		if mass <= 1e-12 {
			continue
		}
		p.Visited[s] = true
		for _, v := range m.varsByState[s] {
			if a := m.vars[v].action; a >= 0 {
				p.ActionProb[s][a] = x[v] / mass
			}
		}
	}
	return p
}

// Action returns the action distribution at the state with the given client
// levels. For unvisited (or out-of-range, clamped) states it falls back to
// granting the longest queue deterministically. The returned slice must not
// be mutated. Action allocates nothing: the simulator's CTMDP arbiter calls
// it on every dispatch.
func (p *Policy) Action(levels []int) ([]float64, error) {
	m := p.Model
	n := len(m.Clients)
	if len(levels) != n {
		return nil, fmt.Errorf("ctmdp: level vector has %d entries, model has %d clients", len(levels), n)
	}
	s, best, bestLvl := 0, n, 0
	for c, l := range levels {
		if l < 0 {
			return nil, fmt.Errorf("ctmdp: negative level %d for client %d", l, c)
		}
		if l > m.Clients[c].Levels {
			l = m.Clients[c].Levels
		}
		s += l * m.strides[c]
		if l > bestLvl {
			best, bestLvl = c, l
		}
	}
	if p.Visited[s] {
		// Verify the policy row grants a non-empty client; numerical dust on
		// empty clients is possible only through bugs, so trust it.
		return p.ActionProb[s], nil
	}
	// Fallback: longest queue among non-empty, or idle when all are empty.
	return m.grants[best*n : (best+1)*n : (best+1)*n], nil
}

// RandomisedState describes one state where the optimal policy randomises.
type RandomisedState struct {
	State   int
	Levels  []int
	Actions map[int]float64 // client index -> conditional probability
}

// Switching is the K-switching structure of a constrained-optimal policy
// (Feinberg 2002): the policy is deterministic everywhere except in a small
// set of randomised states — at most one per active constraint beyond the
// per-model normalisations in exact arithmetic.
type Switching struct {
	Randomised []RandomisedState
	// BasePolicy[s] is the deterministic majority action per visited state
	// (argmax of the conditional distribution, -1 for idle/unvisited).
	BasePolicy []int
}

// KSwitching analyses the policy's randomisation structure.
func (p *Policy) KSwitching() *Switching {
	m := p.Model
	sw := &Switching{BasePolicy: make([]int, m.numStates)}
	for s := 0; s < m.numStates; s++ {
		sw.BasePolicy[s] = -1
		if !p.Visited[s] {
			continue
		}
		best, bestP := -1, 0.0
		support := map[int]float64{}
		for c, pr := range p.ActionProb[s] {
			if pr > randTol {
				support[c] = pr
			}
			if pr > bestP {
				best, bestP = c, pr
			}
		}
		sw.BasePolicy[s] = best
		if len(support) >= 2 {
			levels := make([]int, len(m.Clients))
			for c := range m.Clients {
				levels[c] = m.Level(s, c)
			}
			sw.Randomised = append(sw.Randomised, RandomisedState{
				State:   s,
				Levels:  levels,
				Actions: support,
			})
		}
	}
	sort.Slice(sw.Randomised, func(i, j int) bool { return sw.Randomised[i].State < sw.Randomised[j].State })
	return sw
}

// String summarises the switching structure.
func (sw *Switching) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "randomised states: %d", len(sw.Randomised))
	for _, r := range sw.Randomised {
		fmt.Fprintf(&sb, "; state %v:", r.Levels)
		keys := make([]int, 0, len(r.Actions))
		for c := range r.Actions {
			keys = append(keys, c)
		}
		sort.Ints(keys)
		for _, c := range keys {
			fmt.Fprintf(&sb, " a%d=%.3f", c, r.Actions[c])
		}
	}
	return sb.String()
}
