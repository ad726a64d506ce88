package ctmdp

import "socbuf/internal/linalg"

// PolicyChain is the CTMC induced by a solved policy, restricted to the
// states reachable from the all-empty state (the chain's single recurrent
// class — unreachable states carry no stationary mass and would make the
// full-space chain reducible). The solve never builds it: it is the chain
// the tests solve independently (linalg.StationaryDense) to referee the
// distribution policy iteration returns.
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
