package lp

import (
	"errors"
	"fmt"
	"math"
)

// Parametric follows the optimum of
//
//	minimise (c + λd)ᵀx over the problem's constraints
//
// as the price λ rises from 0, where c is the problem's objective. It keeps
// the optimal tableau of the λ = 0 solve plus one more row: d priced over
// the current basis (its reduced costs). A basis stays optimal while every
// reduced cost of c + λd is non-negative. Next finds the smallest λ at which
// one of them reaches zero on a column with a negative reduced d, and Step
// pivots that column in with the primal ratio test. Each step lands on an
// adjacent vertex that is optimal at that λ too, and dᵀx never rises along
// the way.
type Parametric struct {
	p       *Problem
	t       *tableau
	banFrom int // first artificial column: never entered
	lambda  float64
}

// errNoBreakpoint is returned by Step when no column can lower dᵀx: every
// reduced d is non-negative, so the current vertex minimises dᵀx over the
// feasible set, and Next returns +Inf.
var errNoBreakpoint = errors.New("lp: no breakpoint left")

// NewParametric solves p cold, exactly as Solve does, and prices d (one
// entry per variable) over the optimal basis. The Solution is the λ = 0
// optimum; when its status is not Optimal the Parametric is nil.
func NewParametric(p *Problem, d []float64) (*Parametric, *Solution, error) {
	if len(d) != p.NumVars() {
		return nil, nil, fmt.Errorf("lp: price vector has %d entries, problem has %d variables", len(d), p.NumVars())
	}
	sol, t, artStart, err := solveCold(p)
	if err != nil || sol.Status != Optimal {
		return nil, sol, err
	}
	row := make([]float64, t.n+1)
	copy(row, d)
	for i, b := range t.basis {
		if b < len(d) && d[b] != 0 {
			f := d[b]
			for j, v := range t.a[i] {
				row[j] -= f * v
			}
		}
	}
	t.a = append(t.a, row) // pivot now keeps it current
	return &Parametric{p: p, t: t, banFrom: artStart}, sol, nil
}

// Next returns the price of the next breakpoint: the smallest λ at or
// above the current price at which a column with a negative reduced d
// reaches a zero reduced cost of c + λd. It returns +Inf when no such
// column is left.
func (pc *Parametric) Next() float64 {
	step, _ := pc.next()
	return pc.lambda + step
}

// next returns the price rise to the next breakpoint and the column that
// enters there, or (+Inf, -1) when there is none. Ties go to the lowest
// column index.
func (pc *Parametric) next() (float64, int) {
	t := pc.t
	obj, dr := t.a[t.m], t.a[t.m+1]
	step, enter := math.Inf(1), -1
	for j := 0; j < pc.banFrom; j++ {
		if dr[j] >= -reduceEps {
			continue
		}
		// A reduced cost roundoff left just below zero is at zero.
		if s := math.Max(obj[j], 0) / -dr[j]; s < step {
			step, enter = s, j
		}
	}
	return step, enter
}

// Step raises the price to Next() and pivots the column that reaches a zero
// reduced cost there into the basis: one pivot. It returns the new vertex,
// whose Objective is cᵀx without the price term.
func (pc *Parametric) Step() (*Solution, error) {
	step, enter := pc.next()
	if enter < 0 {
		return nil, errNoBreakpoint
	}
	t := pc.t
	leave := t.ratioTest(enter)
	if leave < 0 {
		return nil, errUnbounded
	}
	obj, dr := t.a[t.m], t.a[t.m+1]
	for j, v := range dr {
		obj[j] += step * v
	}
	pc.lambda += step
	t.pivot(leave, enter)
	return t.extract(pc.p, 1), nil
}
