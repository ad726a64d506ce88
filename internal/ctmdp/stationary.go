package ctmdp

import (
	"fmt"
	"math"

	"socbuf/internal/linalg"
)

// PolicyChain is the CTMC induced by a solved policy, restricted to the
// states reachable from the all-empty state (the chain's single recurrent
// class — unreachable states carry no stationary mass and would make the
// full-space chain reducible).
type PolicyChain struct {
	// States lists the reachable model state indices in increasing order.
	States []int
	// Gen is the restricted generator in CSR form; row/column k corresponds
	// to States[k].
	Gen *linalg.CSR
}

// PolicyChain builds the policy-induced chain of the solution. Service rates
// are split across clients by the policy's conditional action probabilities;
// unvisited states use the policy's longest-queue fallback, matching what
// the simulator executes.
func (ms *ModelSolution) PolicyChain() (*PolicyChain, error) {
	m := ms.Model

	// Breadth-first reachability from the all-empty state under the policy.
	reach := make([]bool, m.numStates)
	reach[0] = true
	queue := []int{0}
	levels := make([]int, len(m.Clients))
	var order []int
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		order = append(order, s)
		for c := range m.Clients {
			levels[c] = m.Level(s, c)
		}
		if err := ms.policyTransitions(s, levels, func(t int, rate float64) {
			if !reach[t] {
				reach[t] = true
				queue = append(queue, t)
			}
		}); err != nil {
			return nil, err
		}
	}

	states := make([]int, 0, len(order))
	for s := 0; s < m.numStates; s++ {
		if reach[s] {
			states = append(states, s)
		}
	}
	index := make(map[int]int, len(states))
	for k, s := range states {
		index[s] = k
	}

	b := linalg.NewSparseBuilder(len(states), len(states))
	for k, s := range states {
		for c := range m.Clients {
			levels[c] = m.Level(s, c)
		}
		var exit float64
		if err := ms.policyTransitions(s, levels, func(t int, rate float64) {
			b.Add(k, index[t], rate)
			exit += rate
		}); err != nil {
			return nil, err
		}
		b.Add(k, k, -exit)
	}
	return &PolicyChain{States: states, Gen: b.Build()}, nil
}

// policyTransitions invokes fn for every outgoing transition of state s under
// the solved policy: client arrivals below capacity, and service split across
// non-empty clients by the conditional grant probabilities.
func (ms *ModelSolution) policyTransitions(s int, levels []int, fn func(target int, rate float64)) error {
	m := ms.Model
	for c, cl := range m.Clients {
		if cl.Lambda > 0 && levels[c] < cl.Levels {
			fn(s+m.strides[c], cl.Lambda)
		}
	}
	probs, err := ms.Policy.Action(levels)
	if err != nil {
		return err
	}
	for c, p := range probs {
		if p > 0 && levels[c] > 0 {
			fn(s-m.strides[c], m.ServiceRate*p)
		}
	}
	return nil
}

// StationaryUnderPolicy computes the stationary state distribution of the
// policy-induced chain with linalg.Stationary (the solver picked by
// reachable-state count) and returns it over the full state space (zero mass
// on unreachable states).
func (ms *ModelSolution) StationaryUnderPolicy() ([]float64, error) {
	chain, err := ms.PolicyChain()
	if err != nil {
		return nil, err
	}
	pi, err := linalg.Stationary(chain.Gen)
	if err != nil {
		return nil, fmt.Errorf("ctmdp: stationary under policy: %w", err)
	}
	full := make([]float64, ms.Model.numStates)
	for k, s := range chain.States {
		full[s] = pi[k]
	}
	return full, nil
}

// RefineStationary recomputes the solution's stationary distribution from the
// policy-induced chain and rescales the occupation measure to match,
// replacing the distribution the solve gave. It returns the largest
// per-state correction |π_refined − π_solved|. The policy itself (the
// conditional action probabilities) is unchanged.
func (ms *ModelSolution) RefineStationary() (float64, error) {
	pi, err := ms.StationaryUnderPolicy()
	if err != nil {
		return 0, err
	}
	m := ms.Model
	var maxDelta float64
	for s := 0; s < m.numStates; s++ {
		if d := math.Abs(pi[s] - ms.StateProb[s]); d > maxDelta {
			maxDelta = d
		}
	}

	// Rescale x(s,·) so each state's mass matches the refined π while the
	// conditional split across actions is preserved.
	for s := 0; s < m.numStates; s++ {
		var mass float64
		for _, v := range m.varsByState[s] {
			mass += ms.X[v]
		}
		switch {
		case mass > 0:
			f := pi[s] / mass
			for _, v := range m.varsByState[s] {
				ms.X[v] *= f
			}
		case pi[s] > 0:
			// Reachable under the fallback policy but unvisited by the solve:
			// assign the state's mass to the fallback (deterministic) action.
			levels := make([]int, len(m.Clients))
			for c := range m.Clients {
				levels[c] = m.Level(s, c)
			}
			probs, err := ms.Policy.Action(levels)
			if err != nil {
				return 0, err
			}
			for _, v := range m.varsByState[s] {
				if a := m.vars[v].action; a >= 0 && probs[a] > 0 {
					ms.X[v] = pi[s] * probs[a]
				} else if a < 0 {
					ms.X[v] = pi[s]
				}
			}
		}
	}
	copy(ms.StateProb, pi)
	ms.LossRate = 0
	for v, sv := range m.vars {
		ms.LossRate += m.CostRate(sv.state, sv.action) * ms.X[v]
	}
	return maxDelta, nil
}
