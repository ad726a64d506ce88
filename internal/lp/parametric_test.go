package lp

import (
	"errors"
	"math"
	"testing"
)

// pricedProblem is a small bounded LP with several breakpoints along the
// price ray: min c·x + λ·d·x over x0+x1+x2+x3 = 1, x1 ≤ 0.6, x ≥ 0. The
// cheapest variable holds the most occupancy, so raising λ walks the
// optimum through x0 → x1 (capped at 0.6, the rest on x2) → x3.
func pricedProblem() (*Problem, []float64) {
	p := NewProblem(4)
	p.Objective = []float64{0, 1, 2, 4}
	_ = p.AddConstraint([]float64{1, 1, 1, 1}, EQ, 1)
	_ = p.AddConstraint([]float64{0, 1, 0, 0}, LE, 0.6)
	return p, []float64{8, 4, 3, 0}
}

// priced returns p with objective c + λd.
func priced(p *Problem, d []float64, lambda float64) *Problem {
	q := &Problem{Objective: make([]float64, len(d)), Constraints: p.Constraints}
	for j := range d {
		q.Objective[j] = p.Objective[j] + lambda*d[j]
	}
	return q
}

// TestParametricFollowsPricedOptimum: at every breakpoint the stepped vertex
// is optimal for c + λd, checked against a cold solve of the priced program
// just past the breakpoint, and dᵀx never rises along the sweep.
func TestParametricFollowsPricedOptimum(t *testing.T) {
	p, d := pricedProblem()
	pc, sol, err := NewParametric(p, d)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v %+v", err, sol)
	}
	occ := func(x []float64) float64 {
		var s float64
		for j, v := range x {
			s += d[j] * v
		}
		return s
	}
	if got := occ(sol.X); math.Abs(got-8) > 1e-12 {
		t.Fatalf("λ = 0 vertex holds occupancy %g, want 8", got)
	}
	last, price, steps := occ(sol.X), 0.0, 0
	for !math.IsInf(pc.Next(), 1) {
		next := pc.Next()
		if next < price {
			t.Fatalf("breakpoint %g below the current price %g", next, price)
		}
		if sol, err = pc.Step(); err != nil {
			t.Fatal(err)
		}
		price = next
		steps++
		now := occ(sol.X)
		if now > last+1e-12 {
			t.Fatalf("occupancy rose from %g to %g at λ = %g", last, now, next)
		}
		last = now
		q := priced(p, d, next*1.001+1e-9)
		ref, err := Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		var val float64
		for j, v := range sol.X {
			val += q.Objective[j] * v
		}
		if math.Abs(val-ref.Objective) > 1e-9 {
			t.Fatalf("λ = %g: stepped vertex costs %g, the priced optimum %g", next, val, ref.Objective)
		}
		if steps > 10 {
			t.Fatal("sweep did not end")
		}
	}
	if steps < 2 || math.Abs(last) > 1e-12 {
		t.Fatalf("sweep took %d steps to occupancy %g, want ≥ 2 steps to 0", steps, last)
	}
	if _, err := pc.Step(); !errors.Is(err, errNoBreakpoint) {
		t.Fatalf("step past the last breakpoint: %v, want errNoBreakpoint", err)
	}
}

func TestParametricRejectsBadInput(t *testing.T) {
	p, d := pricedProblem()
	if _, _, err := NewParametric(p, d[:2]); err == nil {
		t.Fatal("short price vector accepted")
	}
	q := NewProblem(1)
	q.Objective = []float64{1}
	_ = q.AddConstraint([]float64{1}, GE, 2)
	_ = q.AddConstraint([]float64{1}, LE, 1)
	pc, sol, err := NewParametric(q, []float64{1})
	if err != nil || pc != nil || sol.Status != Infeasible {
		t.Fatalf("infeasible program: %v %v %+v", pc, err, sol)
	}
}
