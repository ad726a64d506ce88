package lp

import (
	"fmt"
	"math"
)

const (
	pivotEps  = 1e-9 // entries smaller than this are treated as zero pivots
	feasEps   = 1e-7 // phase-1 objective above this means infeasible
	reduceEps = 1e-9 // reduced-cost tolerance for optimality
)

// tableau is the dense simplex working state. Layout:
//
//	rows 0..m-1:  constraint rows, columns 0..n-1 variables, column n = RHS
//	row m:        objective row (reduced costs), column n = -objective value
type tableau struct {
	m, n  int
	a     [][]float64 // (m+1) x (n+1)
	basis []int       // basis[i] = variable index basic in row i
}

// build assembles the raw tableau: normalised rows, slack/surplus columns,
// artificials basic in GE/EQ rows. artStart is the first artificial column.
func build(p *Problem) (t *tableau, artStart int) {
	n := p.NumVars()
	m := len(p.Constraints)

	type rowSpec struct {
		coeffs []float64
		rhs    float64
		rel    Relation
	}
	rows := make([]rowSpec, m)
	for i, c := range p.Constraints {
		coeffs := make([]float64, n)
		copy(coeffs, c.Coeffs)
		rhs := c.RHS
		rel := c.Rel
		if rhs < 0 { // normalise to b >= 0
			for j := range coeffs {
				coeffs[j] = -coeffs[j]
			}
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows[i] = rowSpec{coeffs, rhs, rel}
	}

	nSlack := 0
	for _, r := range rows {
		if r.rel == LE || r.rel == GE {
			nSlack++
		}
	}
	nArt := 0
	for _, r := range rows {
		if r.rel == GE || r.rel == EQ {
			nArt++
		}
	}

	total := n + nSlack + nArt
	t = &tableau{m: m, n: total}
	// One contiguous arena backs every row: simplex pivots stream the whole
	// tableau, and row-contiguous storage keeps that streaming prefetchable
	// (and cuts the m+2 row allocations to one).
	t.a = make([][]float64, m+1)
	arena := make([]float64, (m+1)*(total+1))
	for i := range t.a {
		t.a[i], arena = arena[:total+1:total+1], arena[total+1:]
	}
	t.basis = make([]int, m)

	slackCol := n
	artCol := n + nSlack
	artStart = artCol
	for i, r := range rows {
		copy(t.a[i][:n], r.coeffs)
		t.a[i][total] = r.rhs
		switch r.rel {
		case LE:
			t.a[i][slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			slackCol++
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}
	return t, artStart
}

// clearArtificials drives every still-basic artificial (at zero level) out
// of the basis, zeroing rows that prove redundant. Returns pivots performed.
// Callers must only invoke this when those rows' RHS are (numerically) zero.
func (t *tableau) clearArtificials(artStart int) int {
	pivots := 0
	for i := 0; i < t.m; i++ {
		if t.basis[i] < artStart {
			continue
		}
		pivoted := false
		for j := 0; j < artStart; j++ {
			if math.Abs(t.a[i][j]) > pivotEps {
				t.pivot(i, j)
				pivots++
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero it so it can never constrain phase 2.
			for j := 0; j <= t.n; j++ {
				t.a[i][j] = 0
			}
		}
	}
	return pivots
}

// phase2Objective installs the true objective, priced out over the current
// basis. A deterministic, negligible perturbation breaks total objective
// ties: problems whose actions all cost the same (dual-degenerate CTMDP
// instances) otherwise orbit forever even under Bland's rule with
// floating-point pivoting. The reported objective is recomputed from the
// unperturbed costs at extraction.
func (t *tableau) phase2Objective(p *Problem) {
	n := p.NumVars()
	objScale := 0.0
	for j := 0; j < n; j++ {
		if a := math.Abs(p.Objective[j]); a > objScale {
			objScale = a
		}
	}
	if objScale == 0 {
		objScale = 1
	}
	perturb := objScale * 1e-9 / float64(n)
	obj := t.a[t.m]
	for j := range obj {
		obj[j] = 0
	}
	for j := 0; j < n; j++ {
		obj[j] = p.Objective[j] + perturb*float64(j+1)
	}
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		if b < n && math.Abs(obj[b]) > 0 {
			c := obj[b]
			for j := 0; j <= t.n; j++ {
				obj[j] -= c * t.a[i][j]
			}
		}
	}
}

// extract reads the optimal point off the tableau.
func (t *tableau) extract(p *Problem, iters int) *Solution {
	n := p.NumVars()
	x := make([]float64, n)
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b < n {
			x[b] = t.a[i][t.n]
		}
	}
	// Clamp tiny negatives introduced by roundoff.
	for j := range x {
		if x[j] < 0 && x[j] > -1e-9 {
			x[j] = 0
		}
	}
	var objVal float64
	for j := 0; j < n; j++ {
		objVal += p.Objective[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: objVal, Iters: iters}
}

// Solve runs two-phase primal simplex on the problem. The limit on pivots
// is proportional to the problem size; exceeding it returns
// ErrIterationLimit.
func Solve(p *Problem) (*Solution, error) {
	if p.NumVars() == 0 {
		return nil, ErrNoVariables
	}
	t, artStart := build(p)
	total := t.n
	nArt := total - artStart
	maxIters := 200 * (t.m + total + 10)
	iters := 0

	// Phase 1: minimise the sum of artificials.
	if nArt > 0 {
		obj := t.a[t.m]
		for j := range obj {
			obj[j] = 0
		}
		for j := artStart; j < total; j++ {
			obj[j] = 1
		}
		// Price out the artificial basis (reduced costs must be expressed in
		// terms of the current basis).
		for i := 0; i < t.m; i++ {
			if t.basis[i] >= artStart {
				for j := 0; j <= total; j++ {
					obj[j] -= t.a[i][j]
				}
			}
		}
		it, err := t.iterate(maxIters, artStart)
		iters += it
		if err != nil {
			return nil, fmt.Errorf("lp: phase 1: %w", err)
		}
		if -t.a[t.m][total] > feasEps {
			return &Solution{Status: Infeasible, Iters: iters}, nil
		}
		iters += t.clearArtificials(artStart)
	}

	// Phase 2.
	t.phase2Objective(p)
	it, err := t.iterate(maxIters, artStart)
	iters += it
	if err != nil {
		if err == errUnbounded {
			return &Solution{Status: Unbounded, Iters: iters}, nil
		}
		return nil, err
	}
	return t.extract(p, iters), nil
}

type simplexErr string

func (e simplexErr) Error() string { return string(e) }

const errUnbounded = simplexErr("lp: unbounded")

// iterate runs simplex pivots until optimal, unbounded or the iteration cap.
// Columns at index >= banFrom are never entered (used to keep artificials out
// during phase 2). Pivoting uses Dantzig's rule (most negative reduced cost)
// for speed; a run of pivots with no objective progress flips it to Bland's
// entering rule permanently (switching back on roundoff-scale
// "improvements" can livelock between the two rules). The ratio test's
// largest-pivot tie-break voids Bland's termination proof, so two backstops
// remain: a long Bland stall accepts the vertex at a loosened 1e-6
// reduced-cost tolerance, and maxIters ends the rest.
func (t *tableau) iterate(maxIters, banFrom int) (int, error) {
	obj := t.a[t.m]
	iters := 0
	bland := false
	stall := 0
	stallLimit := 30 + t.m/4
	lastObj := -obj[t.n]
	for {
		if iters >= maxIters {
			return iters, ErrIterationLimit
		}
		enter := -1
		if bland {
			// Bland: lowest index with negative reduced cost.
			for j := 0; j < t.n && j < banFrom; j++ {
				if obj[j] < -reduceEps {
					enter = j
					break
				}
			}
		} else {
			// Dantzig: most negative reduced cost.
			best := -reduceEps
			for j := 0; j < t.n && j < banFrom; j++ {
				if obj[j] < best {
					best = obj[j]
					enter = j
				}
			}
		}
		if enter == -1 {
			return iters, nil // optimal
		}
		leave := t.ratioTest(enter)
		if leave == -1 {
			return iters, errUnbounded
		}
		t.pivot(leave, enter)
		iters++
		cur := -obj[t.n]
		if cur < lastObj-1e-12 {
			lastObj = cur
			stall = 0
		} else {
			stall++
			if stall > stallLimit {
				bland = true
			}
			// Prolonged stagnation in Bland mode means roundoff is keeping
			// a reduced cost pinned fractionally below the tolerance at an
			// effectively-optimal vertex. Accept the vertex if every
			// reduced cost clears a loosened tolerance.
			if bland && stall > 20*stallLimit {
				worst := 0.0
				for j := 0; j < t.n && j < banFrom; j++ {
					if obj[j] < worst {
						worst = obj[j]
					}
				}
				if worst > -1e-6 {
					return iters, nil
				}
			}
		}
	}
}

// ratioTest picks the row that leaves when column enter enters, or -1 when
// no entry of the column is positive (the ray is unbounded). It breaks ties
// for numerical stability: CTMDP balance systems are maximally degenerate
// (almost every RHS is 0), so many rows tie at ratio 0, and repeatedly
// pivoting on tiny entries blows the tableau up until "reduced costs" are
// pure noise. Among (near-)minimal-ratio rows it therefore picks the
// LARGEST entry in the entering column, which keeps growth bounded.
func (t *tableau) ratioTest(enter int) int {
	leave := -1
	bestRatio := math.Inf(1)
	bestPivot := 0.0
	for i := 0; i < t.m; i++ {
		aij := t.a[i][enter]
		if aij <= pivotEps {
			continue
		}
		// Roundoff can leave a basic value microscopically negative;
		// clamp so ratios stay non-negative.
		rhs := t.a[i][t.n]
		if rhs < 0 {
			rhs = 0
		}
		ratio := rhs / aij
		switch {
		case ratio < bestRatio-1e-9:
			bestRatio = ratio
			bestPivot = aij
			leave = i
		case ratio <= bestRatio+1e-9 && aij > bestPivot:
			if ratio < bestRatio {
				bestRatio = ratio
			}
			bestPivot = aij
			leave = i
		}
	}
	return leave
}

// pivot makes column `col` basic in row `row`. The eliminate loop is
// unrolled 4-wide over slices re-sliced to the n variable columns (the RHS
// column is updated separately) so the bounds checks hoist — this saxpy is
// the single hottest loop in the module.
func (t *tableau) pivot(row, col int) {
	w := t.n
	prow := t.a[row]
	inv := 1 / prow[col]
	for j := 0; j < w; j++ {
		prow[j] *= inv
	}
	prow[t.n] *= inv
	prow[col] = 1 // exact
	ps := prow[:w]
	for i, ri := range t.a {
		if i == row {
			continue
		}
		f := ri[col]
		if f == 0 {
			continue
		}
		rs := ri[:w]
		j := 0
		for ; j+3 < w; j += 4 {
			rs[j] -= f * ps[j]
			rs[j+1] -= f * ps[j+1]
			rs[j+2] -= f * ps[j+2]
			rs[j+3] -= f * ps[j+3]
		}
		for ; j < w; j++ {
			rs[j] -= f * ps[j]
		}
		ri[t.n] -= f * prow[t.n]
		ri[col] = 0 // exact
	}
	t.basis[row] = col
}
