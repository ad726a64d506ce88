package ctmdp

import (
	"errors"
	"math"
	"testing"

	"socbuf/internal/linalg"
)

// fixtureModels rebuilds every single-bus model fixture the solve/sizing
// tests exercise, plus the largest model the pipeline builds: four clients
// at levels 0–2, 3^4 = MaxStates = 81 states.
func fixtureModels(t *testing.T) map[string]*Model {
	t.Helper()
	four := make([]Client, 4)
	for i := range four {
		four[i] = Client{BufferID: string(rune('a' + i)), Lambda: 0.5 + 0.4*float64(i), Levels: 2, UnitsPerLevel: 1, LossWeight: 1}
	}
	return map[string]*Model{
		"mm1k-1": mustModel(t, "b", 3, singleClient(2, 1)),
		"mm1k-2": mustModel(t, "b", 3, singleClient(2, 2)),
		"mm1k-4": mustModel(t, "b", 3, singleClient(2, 4)),
		"two-client": mustModel(t, "b", 4, []Client{
			{BufferID: "x", Lambda: 2, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
			{BufferID: "y", Lambda: 1, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		}),
		"hot-cold": mustModel(t, "b", 3.5, []Client{
			{BufferID: "hot", Lambda: 3, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
			{BufferID: "cold", Lambda: 0.3, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		}),
		"asymmetric-units": mustModel(t, "b", 4.5, []Client{
			{BufferID: "x", Lambda: 2.0, Levels: 2, UnitsPerLevel: 5, LossWeight: 1},
			{BufferID: "y", Lambda: 2.0, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		}),
		"inert-client": mustModel(t, "b", 3, []Client{
			{BufferID: "live", Lambda: 2, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
			{BufferID: "dead", Lambda: 0, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		}),
		"three-client": mustModel(t, "b", 6, []Client{
			{BufferID: "a", Lambda: 1.5, Levels: 3, UnitsPerLevel: 1, LossWeight: 1},
			{BufferID: "b", Lambda: 2.0, Levels: 2, UnitsPerLevel: 2, LossWeight: 2},
			{BufferID: "c", Lambda: 0.7, Levels: 3, UnitsPerLevel: 1, LossWeight: 1},
		}),
		"four-client-81": mustModel(t, "b", 4.8, four),
	}
}

// TestStateProbMatchesPolicyChain: the distribution policy iteration reads
// off its last evaluation's factors is the stationary distribution of the
// policy it returns. On every fixture, free and under a 90% occupancy cap,
// it matches a dense solve of the policy-induced chain to 1e-12 (measured
// worst case 6.4e-16).
func TestStateProbMatchesPolicyChain(t *testing.T) {
	var worst float64
	for name, m := range fixtureModels(t) {
		configs := []JointConfig{{}}
		free := mustSolve(t, []*Model{m}, JointConfig{})
		if free.OccupancyUsed > 0.1 {
			configs = append(configs, JointConfig{OccupancyCaps: []float64{free.OccupancyUsed * 0.9}})
		}
		for ci, cfg := range configs {
			sol, err := SolveJoint([]*Model{m}, cfg)
			if errors.Is(err, ErrInfeasible) {
				continue // a 90% cap is not feasible for every fixture
			}
			if err != nil {
				t.Fatalf("%s cfg %d: %v", name, ci, err)
			}
			ms := sol.PerModel[0]
			// Unreachable states must carry no mass in the solver's answer.
			for s, p := range chainStationary(t, ms) {
				d := math.Abs(p - ms.StateProb[s])
				if d > 1e-12 {
					t.Fatalf("%s cfg %d state %d: chain π %v vs policy iteration %v (Δ=%g)",
						name, ci, s, p, ms.StateProb[s], d)
				}
				worst = math.Max(worst, d)
			}
		}
	}
	t.Logf("worst |π_chain − StateProb| = %.2g", worst)
}

// chainStationary solves the chain ms's policy induces with
// linalg.StationaryDense and returns its distribution over the model's full
// state space, with no mass on the states the chain does not reach.
func chainStationary(t *testing.T, ms *ModelSolution) []float64 {
	t.Helper()
	chain, err := ms.PolicyChain()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := linalg.StationaryDense(chain.Gen)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]float64, ms.Model.NumStates())
	for k, s := range chain.States {
		full[s] = pi[k]
	}
	return full
}

func TestPolicyChainExcludesUnreachable(t *testing.T) {
	// The inert client's levels are unreachable: the restricted chain must
	// contain exactly the live client's 3 levels.
	m := mustModel(t, "b", 3, []Client{
		{BufferID: "live", Lambda: 2, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "dead", Lambda: 0, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	})
	sol := mustSolve(t, []*Model{m}, JointConfig{})
	chain, err := sol.PerModel[0].PolicyChain()
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.States) != 3 {
		t.Fatalf("reachable states = %d, want 3 (dead client levels pruned)", len(chain.States))
	}
	for _, s := range chain.States {
		if m.Level(s, 1) != 0 {
			t.Fatalf("state %d has dead client at level %d", s, m.Level(s, 1))
		}
	}
}
