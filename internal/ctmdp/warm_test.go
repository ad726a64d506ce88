package ctmdp

import (
	"errors"
	"math"
	"testing"

	"socbuf/internal/lp"
)

// TestWarmStationaryAgreesWithCold is the warm-start correctness gate at the
// ctmdp layer: on every fixture, a sparse-iterative stationary solve seeded
// with a prior — the exact answer, a perturbed answer, or garbage — agrees
// with the unseeded solve to 1e-8. A warm start is a hint about where to
// start iterating, never about where to stop.
func TestWarmStationaryAgreesWithCold(t *testing.T) {
	for name, m := range fixtureModels(t) {
		sol := mustSolve(t, []*Model{m}, JointConfig{})
		ms := sol.PerModel[0]
		opts := StationaryOptions{Method: MethodSparseIterative}
		cold, err := ms.StationaryUnderPolicy(opts)
		if err != nil {
			t.Fatalf("%s: cold: %v", name, err)
		}

		perturbed := make([]float64, len(cold))
		for i, p := range cold {
			perturbed[i] = p + 1e-3/float64(len(cold))
		}
		priors := map[string][]float64{
			"exact":        cold,
			"perturbed":    perturbed,
			"wrong-length": {0.5, 0.5},
			"massless":     make([]float64, len(cold)),
		}
		for pname, prior := range priors {
			opts := opts
			opts.Warm = prior
			warm, err := ms.StationaryUnderPolicy(opts)
			if err != nil {
				t.Fatalf("%s/%s: warm: %v", name, pname, err)
			}
			for s := range cold {
				if d := math.Abs(warm[s] - cold[s]); d > 1e-8 {
					t.Fatalf("%s/%s: warm and cold stationary differ by %g at state %d", name, pname, d, s)
				}
			}
		}
	}
}

// TestWarmCappedSolveAgreesWithCold: re-solving fixtures under an occupancy
// cap from their free solves' bases (the solve-cache's seeding) must reach
// the cold optimum — same objective to 1e-8, warm path cheaper in pivots.
func TestWarmCappedSolveAgreesWithCold(t *testing.T) {
	for name, m := range fixtureModels(t) {
		free := mustSolve(t, []*Model{m}, JointConfig{})
		if free.OccupancyUsed < 0.1 {
			continue
		}
		capped := JointConfig{OccupancyCap: free.OccupancyUsed * 0.9}
		cold, err := SolveJoint([]*Model{m}, capped)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: cold: %v", name, err)
		}
		warmCfg := capped
		warmCfg.WarmBasis = [][]lp.BasicRef{free.Basis}
		warm, err := SolveJoint([]*Model{m}, warmCfg)
		if err != nil {
			t.Fatalf("%s: warm: %v", name, err)
		}
		if d := math.Abs(warm.TotalLossRate - cold.TotalLossRate); d > 1e-8 {
			t.Errorf("%s: warm and cold capped objectives differ by %g", name, d)
		}
		if d := math.Abs(warm.OccupancyUsed - cold.OccupancyUsed); d > 1e-6 {
			t.Errorf("%s: warm and cold occupancies differ by %g", name, d)
		}
	}
}

// TestWarmRefineStationary: RefineStationary threads the prior through to
// the iterative solver and lands on the same refined measure.
func TestWarmRefineStationary(t *testing.T) {
	m := fixtureModels(t)["three-client"]
	coldSol := mustSolve(t, []*Model{m}, JointConfig{})
	cold := coldSol.PerModel[0]
	if _, err := cold.RefineStationary(StationaryOptions{Method: MethodSparseIterative}); err != nil {
		t.Fatal(err)
	}

	warmSol := mustSolve(t, []*Model{m}, JointConfig{})
	warm := warmSol.PerModel[0]
	if _, err := warm.RefineStationary(StationaryOptions{
		Method: MethodSparseIterative,
		Warm:   cold.StateProb,
	}); err != nil {
		t.Fatal(err)
	}
	for s := range cold.StateProb {
		if d := math.Abs(warm.StateProb[s] - cold.StateProb[s]); d > 1e-8 {
			t.Fatalf("refined warm and cold differ by %g at state %d", d, s)
		}
	}
	if d := math.Abs(warm.LossRate - cold.LossRate); d > 1e-8 {
		t.Fatalf("refined loss rates differ by %g", d)
	}
}
