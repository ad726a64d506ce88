package ctmdp

import (
	"fmt"
	"math"
	"testing"

	"socbuf/internal/queueing"
)

// TestSingleBusCTMDPMatchesMM1K is the correctness anchor of the analytic
// solver backend (internal/solver's "analytic" method): for a single-bus
// model with one client at capacity K, the CTMDP has exactly one
// work-conserving policy — serve the queue whenever it is non-empty — so
// its stationary occupation measure IS the M/M/1/K birth–death
// distribution. The solved state probabilities and the closed-form
// queueing.MM1K distribution must therefore agree to 1e-8 across a
// (λ, μ, K) grid spanning underload, critical load (ρ = 1, the uniform
// distribution) and overload. The refine=false subtests check the
// distribution policy iteration returns; the refine=true subtests check the
// distribution re-solved densely from the policy-induced chain, the solve
// the former refine option ran on chains this small, and so referee the
// referee that TestStateProbMatchesPolicyChain relies on.
func TestSingleBusCTMDPMatchesMM1K(t *testing.T) {
	const tol = 1e-8
	lambdas := []float64{0.3, 0.7, 1.0, 1.6}
	mus := []float64{1.0, 2.5}
	caps := []int{1, 2, 3, 5, 8}
	for _, refine := range []bool{false, true} {
		for _, lambda := range lambdas {
			for _, mu := range mus {
				for _, k := range caps {
					name := fmt.Sprintf("refine=%v/l%v/m%v/K%d", refine, lambda, mu, k)
					t.Run(name, func(t *testing.T) {
						m, err := NewModel("bus", mu, []Client{{
							BufferID:      "b",
							Lambda:        lambda,
							Levels:        k,
							UnitsPerLevel: 1,
							LossWeight:    1,
						}})
						if err != nil {
							t.Fatal(err)
						}
						sol, err := SolveJoint([]*Model{m}, JointConfig{})
						if err != nil {
							t.Fatal(err)
						}
						q, err := queueing.NewMM1K(lambda, mu, k)
						if err != nil {
							t.Fatal(err)
						}
						want := q.Distribution()
						ms := sol.PerModel[0]
						pi, full := ms.StateProb, ms.FullProbability(0)
						if refine {
							pi = chainStationary(t, ms)
							full = pi[len(pi)-1] // one client: the state index is its level
						}
						if len(pi) != len(want) {
							t.Fatalf("state space %d, want %d", len(pi), len(want))
						}
						for s, p := range pi {
							if math.Abs(p-want[s]) > tol {
								t.Fatalf("pi[%d] = %.12f, M/M/1/K gives %.12f (diff %.3g)",
									s, p, want[s], math.Abs(p-want[s]))
							}
						}
						// The model's blocking estimate is the full-state
						// probability; it must match Blocking() (PASTA), and
						// the weighted loss rate must be λ·B.
						if math.Abs(full-q.Blocking()) > tol {
							t.Fatalf("P(full) = %.12f, Blocking = %.12f", full, q.Blocking())
						}
						if got := ms.LossRate; math.Abs(got-q.LossRate()) > tol {
							t.Fatalf("loss rate %.12f, λ·B = %.12f", got, q.LossRate())
						}
					})
				}
			}
		}
	}
}
