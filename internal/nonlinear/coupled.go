// Package nonlinear models the architecture BEFORE buffer insertion: buses
// connected by un-buffered bridges must hold both (or all) buses of a route
// simultaneously to move a packet, so each bus's stationary balance equations
// contain products of its own state probabilities with the other buses'
// availability — the quadratic (and, for two-bridge routes, cubic) terms of
// the paper's §2 that defeated a generic nonlinear solver.
//
// The package builds that coupled system and offers the two generic solvers
// one would naturally reach for — Picard (fixed-point) iteration and Newton
// on the KKT conditions of the optimisation variant (KKTNewton) — together
// with convergence diagnostics. The experiments compare KKTNewton against
// the split-linear method, which needs no nonlinear iteration at all; the
// tests use Picard as the fixed-point referee of the coupled equations.
package nonlinear

import (
	"errors"
	"fmt"

	"socbuf/internal/linalg"
)

// ClientSpec is one traffic queue on a coupled bus.
type ClientSpec struct {
	ID     string
	Lambda float64
	Levels int
	// Gates lists the indices (into CoupledSystem.Buses) of the OTHER buses
	// that must be simultaneously free for this client's packets to move:
	// one entry per un-buffered bridge on the packet's route. Empty for
	// local traffic.
	Gates []int
}

// BusSpec is one bus of the coupled group.
type BusSpec struct {
	ID      string
	Mu      float64
	Clients []ClientSpec
}

// CoupledSystem is the joint stationary-analysis problem of a group of buses
// connected by un-buffered bridges. Arbitration is fixed to longest-queue
// (the paper's coupled system is an analysis problem; the optimisation
// variant is strictly harder).
type CoupledSystem struct {
	Buses []BusSpec

	strides [][]int
	states  []int // per-bus state count
	offset  []int // unknown-vector offset per bus
	total   int
}

// NewCoupledSystem validates and precomputes the state layout.
func NewCoupledSystem(buses []BusSpec) (*CoupledSystem, error) {
	if len(buses) < 2 {
		return nil, errors.New("nonlinear: a coupled system needs at least two buses")
	}
	cs := &CoupledSystem{Buses: buses}
	cs.strides = make([][]int, len(buses))
	cs.states = make([]int, len(buses))
	cs.offset = make([]int, len(buses))
	for m, b := range buses {
		if b.Mu <= 0 {
			return nil, fmt.Errorf("nonlinear: bus %q mu %v must be positive", b.ID, b.Mu)
		}
		if len(b.Clients) == 0 {
			return nil, fmt.Errorf("nonlinear: bus %q has no clients", b.ID)
		}
		cs.strides[m] = make([]int, len(b.Clients))
		n := 1
		for c, cl := range b.Clients {
			if cl.Lambda < 0 {
				return nil, fmt.Errorf("nonlinear: client %q negative lambda", cl.ID)
			}
			if cl.Levels < 1 {
				return nil, fmt.Errorf("nonlinear: client %q levels %d < 1", cl.ID, cl.Levels)
			}
			for _, g := range cl.Gates {
				if g < 0 || g >= len(buses) || g == m {
					return nil, fmt.Errorf("nonlinear: client %q gate %d invalid", cl.ID, g)
				}
			}
			cs.strides[m][c] = n
			n *= cl.Levels + 1
			if n > 20000 {
				return nil, fmt.Errorf("nonlinear: bus %q state space too large", b.ID)
			}
		}
		cs.states[m] = n
		cs.offset[m] = cs.total
		cs.total += n
	}
	return cs, nil
}

// NumUnknowns returns the length of the stacked probability vector.
func (cs *CoupledSystem) NumUnknowns() int { return cs.total }

// level returns client c's level in bus m's state s.
func (cs *CoupledSystem) level(m, s, c int) int {
	return (s / cs.strides[m][c]) % (cs.Buses[m].Clients[c].Levels + 1)
}

// grant returns the longest-queue arbitration choice in bus m state s
// (-1 when all queues are empty).
func (cs *CoupledSystem) grant(m, s int) int {
	best, bestLvl := -1, 0
	for c := range cs.Buses[m].Clients {
		if l := cs.level(m, s, c); l > bestLvl {
			best, bestLvl = c, l
		}
	}
	return best
}

// avail returns the probability bus k is free (all of its queues empty)
// under the stacked vector v.
func (cs *CoupledSystem) avail(v []float64, k int) float64 {
	return v[cs.offset[k]] // state 0 is the all-empty state
}

// InitialGuess returns the uniform stacked distribution.
func (cs *CoupledSystem) InitialGuess() []float64 {
	v := make([]float64, cs.total)
	for m := range cs.Buses {
		for s := 0; s < cs.states[m]; s++ {
			v[cs.offset[m]+s] = 1 / float64(cs.states[m])
		}
	}
	return v
}

// generatorFor builds bus m's CTMC generator with the gate availabilities
// implied by v. Service of a gated client is slowed by the product of the
// gating buses' free probabilities — the nonlinear coupling.
func (cs *CoupledSystem) generatorFor(v []float64, m int) *linalg.Matrix {
	n := cs.states[m]
	q := linalg.NewMatrix(n, n)
	b := cs.Buses[m]
	for s := 0; s < n; s++ {
		// Arrivals.
		for c, cl := range b.Clients {
			if cl.Lambda > 0 && cs.level(m, s, c) < cl.Levels {
				t := s + cs.strides[m][c]
				q.Add(s, t, cl.Lambda)
				q.Add(s, s, -cl.Lambda)
			}
		}
		// Service of the granted client, gated by other buses being free.
		if g := cs.grant(m, s); g >= 0 {
			rate := b.Mu
			for _, gate := range b.Clients[g].Gates {
				rate *= cs.avail(v, gate)
			}
			if rate > 0 {
				t := s - cs.strides[m][g]
				q.Add(s, t, rate)
				q.Add(s, s, -rate)
			}
		}
	}
	return q
}

// Residual evaluates the stacked balance/normalisation residual F(v). For
// each bus: states−1 balance equations (the redundant one is replaced by the
// normalisation Σπ = 1). A root with non-negative entries is a stationary
// point of the coupled system.
func (cs *CoupledSystem) Residual(v []float64) ([]float64, error) {
	if len(v) != cs.total {
		return nil, fmt.Errorf("nonlinear: vector length %d, want %d", len(v), cs.total)
	}
	out := make([]float64, cs.total)
	for m := range cs.Buses {
		q := cs.generatorFor(v, m)
		n := cs.states[m]
		pi := v[cs.offset[m] : cs.offset[m]+n]
		// Balance rows (πQ)_j for j = 0..n-2.
		for j := 0; j < n-1; j++ {
			var bal float64
			for i := 0; i < n; i++ {
				bal += pi[i] * q.At(i, j)
			}
			out[cs.offset[m]+j] = bal
		}
		// Normalisation row.
		var sum float64
		for _, p := range pi {
			sum += p
		}
		out[cs.offset[m]+n-1] = sum - 1
	}
	return out, nil
}

// LossRate returns the total loss rate implied by the stacked vector:
// Σ over buses and clients of λ_c·P(level_c = cap).
func (cs *CoupledSystem) LossRate(v []float64) float64 {
	var loss float64
	for m, b := range cs.Buses {
		for s := 0; s < cs.states[m]; s++ {
			p := v[cs.offset[m]+s]
			if p <= 0 {
				continue
			}
			for c, cl := range b.Clients {
				if cs.level(m, s, c) == cl.Levels {
					loss += p * cl.Lambda
				}
			}
		}
	}
	return loss
}
