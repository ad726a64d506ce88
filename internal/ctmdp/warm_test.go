package ctmdp

import (
	"math"
	"testing"

	"socbuf/internal/linalg"
)

// TestWarmStationaryAgreesWithCold is the warm-start correctness gate at the
// ctmdp layer: on every fixture, a stationary solve seeded with a prior —
// the exact answer, a perturbed answer, or garbage — agrees with the
// unseeded solve to 1e-8. It checks both the Gauss–Seidel solver on the
// policy chain directly (every fixture, whatever band its size picks) and
// StationaryUnderPolicy, which restricts a full-space prior to the chain. A
// warm start is a hint about where to start iterating, never about where to
// stop.
func TestWarmStationaryAgreesWithCold(t *testing.T) {
	priorsFor := func(cold []float64) map[string][]float64 {
		perturbed := make([]float64, len(cold))
		for i, p := range cold {
			perturbed[i] = p + 1e-3/float64(len(cold))
		}
		return map[string][]float64{
			"exact":        cold,
			"perturbed":    perturbed,
			"wrong-length": {0.5, 0.5},
			"massless":     make([]float64, len(cold)),
		}
	}
	agree := func(name string, warm, cold []float64) {
		t.Helper()
		for s := range cold {
			if d := math.Abs(warm[s] - cold[s]); d > 1e-8 {
				t.Fatalf("%s: warm and cold stationary differ by %g at state %d", name, d, s)
			}
		}
	}
	for name, m := range fixtureModels(t) {
		sol := mustSolve(t, []*Model{m}, JointConfig{})
		ms := sol.PerModel[0]

		chain, err := ms.PolicyChain()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cold, err := linalg.StationarySparse(chain.Gen, linalg.IterOptions{})
		if err != nil {
			t.Fatalf("%s: cold: %v", name, err)
		}
		for pname, prior := range priorsFor(cold) {
			warm, err := linalg.StationarySparse(chain.Gen, linalg.IterOptions{Init: prior})
			if err != nil {
				t.Fatalf("%s/%s: warm: %v", name, pname, err)
			}
			agree(name+"/chain/"+pname, warm, cold)
		}

		full, err := ms.StationaryUnderPolicy(nil)
		if err != nil {
			t.Fatalf("%s: cold: %v", name, err)
		}
		for pname, prior := range priorsFor(full) {
			warm, err := ms.StationaryUnderPolicy(prior)
			if err != nil {
				t.Fatalf("%s/%s: warm: %v", name, pname, err)
			}
			agree(name+"/full/"+pname, warm, full)
		}
	}
}

// TestWarmRefineStationary: RefineStationary threads the prior through to
// the iterative solver and lands on the same refined measure.
func TestWarmRefineStationary(t *testing.T) {
	m := fixtureModels(t)["three-client"]
	coldSol := mustSolve(t, []*Model{m}, JointConfig{})
	cold := coldSol.PerModel[0]
	// The fixture must be big enough for the iterative band, or the dense
	// path would ignore the prior and the test would prove nothing.
	chain, err := cold.PolicyChain()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(chain.States); n != 48 || n < linalg.DenseThreshold {
		t.Fatalf("three-client fixture reaches %d states, want 48 (≥ dense threshold %d)", n, linalg.DenseThreshold)
	}
	if _, err := cold.RefineStationary(nil); err != nil {
		t.Fatal(err)
	}

	warmSol := mustSolve(t, []*Model{m}, JointConfig{})
	warm := warmSol.PerModel[0]
	if _, err := warm.RefineStationary(cold.StateProb); err != nil {
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
