package lp

import (
	"math"
	"testing"
)

// relaxedAndCapped builds a small transportation-style LP and a variant with
// one extra inequality appended — the shape of the CTMDP free/capped pair.
func relaxedAndCapped() (*Problem, *Problem) {
	// min x0 + 2x1 + 3x2  s.t.  x0+x1+x2 = 10, x1 - x2 = 2, x0 <= 6
	base := func() *Problem {
		p := NewProblem(3)
		p.Objective = []float64{1, 2, 3}
		_ = p.AddConstraint([]float64{1, 1, 1}, EQ, 10)
		_ = p.AddConstraint([]float64{0, 1, -1}, EQ, 2)
		_ = p.AddConstraint([]float64{1, 0, 0}, LE, 6)
		return p
	}
	relaxed := base()
	capped := base()
	// The appended inequality cuts off the relaxed optimum.
	_ = capped.AddConstraint([]float64{0, 1, 0}, LE, 4)
	return relaxed, capped
}

// TestWarmBasisAgreesWithCold: seeding the capped program with the relaxed
// optimum's basis must reach the same optimum the cold solve finds, via the
// warm path.
func TestWarmBasisAgreesWithCold(t *testing.T) {
	relaxed, capped := relaxedAndCapped()
	rsol, err := Solve(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if rsol.Status != Optimal || len(rsol.Basis) != 3 {
		t.Fatalf("relaxed solve: %+v", rsol)
	}

	cold, err := Solve(capped)
	if err != nil {
		t.Fatal(err)
	}

	capped.WarmBasis = rsol.Basis
	warm, err := Solve(capped)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warmed {
		t.Fatal("warm path did not engage")
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-8 {
		t.Fatalf("warm and cold objectives differ by %g", d)
	}
	for j := range cold.X {
		if d := math.Abs(warm.X[j] - cold.X[j]); d > 1e-8 {
			t.Fatalf("warm and cold X differ by %g at %d", d, j)
		}
	}
	if warm.Iters >= cold.Iters+len(rsol.Basis) {
		t.Errorf("warm start did not save pivots: warm %d vs cold %d", warm.Iters, cold.Iters)
	}
}

// TestWarmBasisInfeasibleCap: an appended constraint that cannot be met must
// surface as Infeasible through the warm path, matching the cold verdict.
func TestWarmBasisInfeasibleCap(t *testing.T) {
	relaxed, _ := relaxedAndCapped()
	rsol, err := Solve(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	capped := NewProblem(3)
	capped.Objective = []float64{1, 2, 3}
	_ = capped.AddConstraint([]float64{1, 1, 1}, EQ, 10)
	_ = capped.AddConstraint([]float64{0, 1, -1}, EQ, 2)
	_ = capped.AddConstraint([]float64{1, 0, 0}, LE, 6)
	_ = capped.AddConstraint([]float64{1, 1, 1}, LE, 5) // contradicts the = 10 row
	capped.WarmBasis = rsol.Basis
	sol, err := Solve(capped)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

// TestWarmGarbageFallsBack: junk seeds must never break a solve — the cold
// path answers.
func TestWarmGarbageFallsBack(t *testing.T) {
	_, capped := relaxedAndCapped()
	cold, err := Solve(capped)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Problem){
		"oversized-basis": func(p *Problem) { p.WarmBasis = make([]BasicRef, 99) },
		"bad-var-ref":     func(p *Problem) { p.WarmBasis = []BasicRef{{Var: 7}, {Var: 1}, {Var: 2}} },
		"bad-aux-ref":     func(p *Problem) { p.WarmBasis = []BasicRef{{Var: -1, Row: 0}, {Var: 1}, {Var: 2}} },
		"duplicate-ref":   func(p *Problem) { p.WarmBasis = []BasicRef{{Var: 1}, {Var: 1}, {Var: 2}} },
	} {
		_, p := relaxedAndCapped()
		mutate(p)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-cold.Objective) > 1e-8 {
			t.Fatalf("%s: got %+v, want cold optimum %g", name, sol, cold.Objective)
		}
	}
}

// TestBasisRoundTrip: encode → decode must reproduce the basis columns on an
// identical problem layout.
func TestBasisRoundTrip(t *testing.T) {
	_, capped := relaxedAndCapped()
	sol, err := Solve(capped)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, lay := build(capped)
	cols, ok := decodeBasis(sol.Basis, capped.NumVars(), lay)
	if !ok {
		t.Fatal("self-decode failed")
	}
	if len(cols) != tab.m {
		t.Fatalf("decoded %d columns for %d rows", len(cols), tab.m)
	}
	// Re-solving with its own basis must engage warm and agree.
	capped.WarmBasis = sol.Basis
	again, err := Solve(capped)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Warmed || math.Abs(again.Objective-sol.Objective) > 1e-12 {
		t.Fatalf("self warm restart: %+v", again)
	}
}
