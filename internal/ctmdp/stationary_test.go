package ctmdp

import (
	"errors"
	"math"
	"testing"

	"socbuf/internal/linalg"
	"socbuf/internal/queueing"
)

// fixtureModels rebuilds every single-bus model fixture the solve/sizing
// tests exercise, so the dense-vs-sparse agreement check covers the same
// ground as the rest of the suite.
func fixtureModels(t *testing.T) map[string]*Model {
	t.Helper()
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
	}
}

// The named stationary solvers, each as a function of the policy chain's
// generator alone.
var (
	denseLU     = linalg.StationaryDense
	gaussSeidel = func(q *linalg.CSR) ([]float64, error) { return linalg.StationarySparse(q, linalg.IterOptions{}) }
)

// chainSolve runs one named solver on the solution's policy chain and
// returns its answer over the full model state space, the shape
// StationaryUnderPolicy returns.
func chainSolve(ms *ModelSolution, solve func(*linalg.CSR) ([]float64, error)) ([]float64, error) {
	chain, err := ms.PolicyChain()
	if err != nil {
		return nil, err
	}
	pi, err := solve(chain.Gen)
	if err != nil {
		return nil, err
	}
	full := make([]float64, ms.Model.NumStates())
	for k, s := range chain.States {
		full[s] = pi[k]
	}
	return full, nil
}

// TestDenseSparseStationaryAgree is the acceptance check: on every fixture,
// the sparse-iterative stationary solve of the policy-induced chain agrees
// with the dense-LU solve to 1e-8, for both free and capped policies.
func TestDenseSparseStationaryAgree(t *testing.T) {
	for name, m := range fixtureModels(t) {
		configs := []JointConfig{{}}
		free := mustSolve(t, []*Model{m}, JointConfig{})
		if free.OccupancyUsed > 0.1 {
			configs = append(configs, JointConfig{OccupancyCap: free.OccupancyUsed * 0.9})
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
			dense, err := chainSolve(ms, denseLU)
			if err != nil {
				t.Fatalf("%s cfg %d dense: %v", name, ci, err)
			}
			sparse, err := chainSolve(ms, gaussSeidel)
			if err != nil {
				t.Fatalf("%s cfg %d sparse: %v", name, ci, err)
			}
			for s := range dense {
				if d := math.Abs(dense[s] - sparse[s]); d > 1e-8 {
					t.Fatalf("%s cfg %d state %d: dense %v sparse %v (Δ=%g)",
						name, ci, s, dense[s], sparse[s], d)
				}
			}
			// Both must also reproduce the LP's stationary distribution: the
			// occupation measure is stationary for its own policy.
			for s := range dense {
				if d := math.Abs(dense[s] - ms.StateProb[s]); d > 1e-6 {
					t.Fatalf("%s cfg %d state %d: chain π %v vs LP %v (Δ=%g)",
						name, ci, s, dense[s], ms.StateProb[s], d)
				}
			}
		}
	}
}

func TestStationaryAutoPicksByStateCount(t *testing.T) {
	// Four clients at levels 0–2 give the largest model the pipeline
	// builds: 3^4 = 81 states, the Gauss–Seidel side of the crossover.
	clients := make([]Client, 4)
	for i := range clients {
		clients[i] = Client{BufferID: string(rune('a' + i)), Lambda: 0.5 + 0.4*float64(i), Levels: 2, UnitsPerLevel: 1, LossWeight: 1}
	}
	big := mustModel(t, "b", 4.8, clients)
	if big.NumStates() != MaxStates {
		t.Fatalf("fixture has %d states, want MaxStates = %d", big.NumStates(), MaxStates)
	}
	large := mustSolve(t, []*Model{big}, JointConfig{}).PerModel[0]
	small := mustSolve(t, []*Model{mustModel(t, "b", 3, singleClient(2, 2))}, JointConfig{})
	mid := mustSolve(t, []*Model{fixtureModels(t)["three-client"]}, JointConfig{})

	// Each band must route to exactly the solver it advertises: the answers
	// are bit-identical to the named solver's, not just close.
	for _, tc := range []struct {
		band  string
		ms    *ModelSolution
		solve func(*linalg.CSR) ([]float64, error)
	}{
		{"dense", small.PerModel[0], denseLU},
		{"gauss-seidel", mid.PerModel[0], gaussSeidel},
		{"gauss-seidel", large, gaussSeidel},
	} {
		auto, err := tc.ms.StationaryUnderPolicy(nil)
		if err != nil {
			t.Fatalf("%s band: %v", tc.band, err)
		}
		named, err := chainSolve(tc.ms, tc.solve)
		if err != nil {
			t.Fatalf("%s named: %v", tc.band, err)
		}
		for s := range auto {
			if auto[s] != named[s] {
				t.Fatalf("auto did not take the %s path (state %d: %v vs %v)",
					tc.band, s, auto[s], named[s])
			}
		}
	}

	// Dense LU and Gauss–Seidel must agree to 1e-8 at the largest size.
	dense, err := chainSolve(large, denseLU)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chainSolve(large, gaussSeidel)
	if err != nil {
		t.Fatal(err)
	}
	for s := range dense {
		if d := math.Abs(dense[s] - got[s]); d > 1e-8 {
			t.Fatalf("%d-state chain: dense %v vs gauss-seidel %v at state %d (Δ=%g)",
				MaxStates, dense[s], got[s], s, d)
		}
	}
}

func TestRefineStationaryKeepsMM1KExact(t *testing.T) {
	lambda, mu := 2.0, 3.0
	m := mustModel(t, "b", mu, singleClient(lambda, 4))
	sol := mustSolve(t, []*Model{m}, JointConfig{RefineStationary: true})
	ms := sol.PerModel[0]
	q, err := queueing.NewMM1K(lambda, mu, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Distribution()
	got := ms.OccupancyDistribution(0)
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("refined dist[%d] = %v, analytic %v", k, got[k], want[k])
		}
	}
	if math.Abs(sol.TotalLossRate-q.LossRate()) > 1e-9 {
		t.Fatalf("refined loss %v, analytic %v", sol.TotalLossRate, q.LossRate())
	}
}

func TestRefineStationarySmallCorrection(t *testing.T) {
	for name, m := range fixtureModels(t) {
		sol := mustSolve(t, []*Model{m}, JointConfig{})
		ms := sol.PerModel[0]
		delta, err := ms.RefineStationary(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if delta > 1e-6 {
			t.Fatalf("%s: refinement moved a state probability by %g — LP and chain disagree", name, delta)
		}
		var sum float64
		for _, p := range ms.StateProb {
			if p < 0 {
				t.Fatalf("%s: negative refined probability %v", name, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("%s: refined mass %v", name, sum)
		}
	}
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

// TestDemandsAfterRefine: refining the stationary distributions before
// extracting demands keeps the demand list and moves tail ratios only at
// roundoff level.
func TestDemandsAfterRefine(t *testing.T) {
	m := mustModel(t, "b", 4, []Client{
		{BufferID: "x", Lambda: 2, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "y", Lambda: 1, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	})
	sol := mustSolve(t, []*Model{m}, JointConfig{})
	plain, err := Demands(sol.PerModel)
	if err != nil {
		t.Fatal(err)
	}
	sol2 := mustSolve(t, []*Model{m}, JointConfig{})
	for _, ms := range sol2.PerModel {
		if _, err := ms.RefineStationary(nil); err != nil {
			t.Fatal(err)
		}
	}
	refined, err := Demands(sol2.PerModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(refined) {
		t.Fatalf("demand count changed: %d vs %d", len(plain), len(refined))
	}
	for i := range plain {
		if plain[i].BufferID != refined[i].BufferID {
			t.Fatalf("demand order changed: %v vs %v", plain[i].BufferID, refined[i].BufferID)
		}
		if math.Abs(plain[i].TailRatio-refined[i].TailRatio) > 1e-6 {
			t.Fatalf("%s: refined tail %v far from plain %v", plain[i].BufferID, refined[i].TailRatio, plain[i].TailRatio)
		}
	}
}
