package lp

import (
	"fmt"
	"math"
)

const (
	pivotEps  = 1e-9 // entries smaller than this are treated as zero pivots
	feasEps   = 1e-7 // phase-1 objective above this means infeasible
	reduceEps = 1e-9 // reduced-cost tolerance for optimality
	crashEps  = 1e-7 // minimum pivot magnitude accepted while crashing a warm basis
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

// layout records which auxiliary column each constraint row owns, for the
// layout-independent basis encoding (BasicRef).
type layout struct {
	rowSlack []int // slack/surplus column of each row, -1 when none
	rowArt   []int // artificial column of each row, -1 when none
}

// encodeBasis converts the tableau's basis into BasicRef form.
func (t *tableau) encodeBasis(nVars int, lay layout) []BasicRef {
	owner := map[int]BasicRef{}
	for i, c := range lay.rowSlack {
		if c >= 0 {
			owner[c] = BasicRef{Var: -1, Row: i}
		}
	}
	for i, c := range lay.rowArt {
		if c >= 0 {
			owner[c] = BasicRef{Var: -1, Row: i, Art: true}
		}
	}
	refs := make([]BasicRef, t.m)
	for i, b := range t.basis {
		if b < nVars {
			refs[i] = BasicRef{Var: b}
		} else {
			refs[i] = owner[b]
		}
	}
	return refs
}

// decodeBasis resolves BasicRefs against this problem's layout, returning
// the target basis columns or ok=false when any ref does not exist here.
func decodeBasis(refs []BasicRef, nVars int, lay layout) ([]int, bool) {
	cols := make([]int, len(refs))
	for i, r := range refs {
		switch {
		case r.Var >= nVars:
			return nil, false
		case r.Var >= 0:
			cols[i] = r.Var
		case r.Row < 0 || r.Row >= len(lay.rowSlack):
			return nil, false
		case r.Art:
			if lay.rowArt[r.Row] < 0 {
				return nil, false
			}
			cols[i] = lay.rowArt[r.Row]
		default:
			if lay.rowSlack[r.Row] < 0 {
				return nil, false
			}
			cols[i] = lay.rowSlack[r.Row]
		}
	}
	return cols, true
}

// build assembles the raw tableau: normalised rows, slack/surplus columns,
// artificials basic in GE/EQ rows. nVars is the count of structural
// variables; artStart the first artificial column.
func build(p *Problem) (t *tableau, artStart int, lay layout) {
	n := p.NumVars()
	m := len(p.Constraints)
	lay = layout{rowSlack: make([]int, m), rowArt: make([]int, m)}
	for i := range lay.rowSlack {
		lay.rowSlack[i], lay.rowArt[i] = -1, -1
	}

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
			lay.rowSlack[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			lay.rowSlack[i] = slackCol
			slackCol++
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			lay.rowArt[i] = artCol
			artCol++
		case EQ:
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			lay.rowArt[i] = artCol
			artCol++
		}
	}
	return t, artStart, lay
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

// Solve runs simplex on the problem: the warm-start path when p.WarmBasis is
// present (falling back silently if it is not usable), else two-phase
// primal. The limit on pivots is proportional to the problem size;
// exceeding it returns ErrIterationLimit.
func Solve(p *Problem) (*Solution, error) {
	if p.NumVars() == 0 {
		return nil, ErrNoVariables
	}
	if len(p.WarmBasis) > 0 {
		if sol, ok := solveWarm(p); ok {
			return sol, nil
		}
	}
	return solveCold(p)
}

// solveCold is the ordinary two-phase primal simplex.
func solveCold(p *Problem) (*Solution, error) {
	t, artStart, lay := build(p)
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
	sol := t.extract(p, iters)
	sol.Basis = t.encodeBasis(p.NumVars(), lay)
	return sol, nil
}

// solveWarm rebuilds the donor solve's basis SET (p.WarmBasis) and solves
// from there, skipping phase 1. Reduced costs depend only on which columns
// are basic, so an optimal donor hands over a dual-feasible start, and any
// rows it violates (inequalities appended since, e.g. a new occupancy cap)
// are repaired by a few dual simplex steps. Returns ok=false to send the
// caller down the cold path whenever the start cannot be established; the
// warm path therefore never changes the reported optimum, only the pivot
// count (degenerate programs may surface a different optimal vertex of
// equal objective).
func solveWarm(p *Problem) (*Solution, bool) {
	n := p.NumVars()
	t, artStart, lay := build(p)
	maxIters := 200 * (t.m + t.n + 10)
	iters := 0

	if len(p.WarmBasis) > t.m {
		return nil, false
	}
	target, ok := decodeBasis(p.WarmBasis, n, lay)
	if !ok {
		return nil, false
	}
	// The donor's basis matrix is nonsingular over the donor's own rows, so
	// reconstruction is confined to them; appended rows keep their own
	// auxiliary basic (the slack of a new inequality).
	it, ok := t.crashBasis(target, len(p.WarmBasis))
	iters += it
	if !ok {
		return nil, false
	}
	// No artificial may survive in the basis outside the donor's own
	// (degenerate, zero-level) entries — an appended equality row would do
	// that, and phase 1 could not be skipped for it.
	inTarget := make(map[int]bool, len(target))
	for _, c := range target {
		inTarget[c] = true
	}
	for _, b := range t.basis {
		if b >= artStart && !inTarget[b] {
			return nil, false
		}
	}

	t.phase2Objective(p)

	// Repair negative basics by dual simplex, which needs the reduced costs
	// (near-)non-negative. A donor basis that was optimal certifies up to
	// roundoff; anything else goes cold here, and the primal cleanup below
	// mops up negativity inside the loosened tolerance.
	if t.minRHS() < -1e-9 {
		for j := 0; j < artStart; j++ {
			if t.a[t.m][j] < -1e-7 {
				return nil, false // not dual feasible: cold path
			}
		}
		it, err := t.dualIterate(maxIters, artStart)
		iters += it
		switch err {
		case nil:
		case errInfeasible:
			return &Solution{Status: Infeasible, Iters: iters, Warmed: true}, true
		default:
			return nil, false
		}
	}

	// Primal cleanup from a feasible, near-optimal basis.
	it, err := t.iterate(maxIters, artStart)
	iters += it
	if err == errUnbounded {
		return &Solution{Status: Unbounded, Iters: iters, Warmed: true}, true
	}
	if err != nil {
		return nil, false
	}
	sol := t.extract(p, iters)
	sol.Warmed = true
	sol.Basis = t.encodeBasis(n, lay)
	return sol, true
}

// crashBasis pivots the target basis SET into place by multi-pass Gaussian
// elimination over the first rowLimit rows: each pass claims target columns
// into eligible rows still holding a non-target basic, pivoting on the
// largest available entry. For a nonsingular target basis this terminates
// with every target column basic; anything else reports ok=false.
func (t *tableau) crashBasis(target []int, rowLimit int) (int, bool) {
	inTarget := make([]bool, t.n)
	for _, c := range target {
		if c < 0 || c >= t.n || inTarget[c] {
			return 0, false // malformed or duplicated target
		}
		inTarget[c] = true
	}
	var pending []int
	done := make([]bool, t.n)
	for _, b := range t.basis {
		if inTarget[b] {
			done[b] = true // already basic (e.g. a slack the donor kept basic)
		}
	}
	for _, c := range target {
		if !done[c] {
			pending = append(pending, c)
		}
	}
	pivots := 0
	for len(pending) > 0 {
		var stuck []int
		progressed := false
		for _, c := range pending {
			best, bestAbs := -1, crashEps
			for i := 0; i < rowLimit && i < t.m; i++ {
				if inTarget[t.basis[i]] {
					continue // row already holds a target basic
				}
				if a := math.Abs(t.a[i][c]); a > bestAbs {
					best, bestAbs = i, a
				}
			}
			if best == -1 {
				stuck = append(stuck, c)
				continue
			}
			t.pivot(best, c)
			pivots++
			progressed = true
		}
		if !progressed {
			return pivots, false // dependent target set (or numerics): cold path
		}
		pending = stuck
	}
	return pivots, true
}

// minRHS returns the most negative basic value.
func (t *tableau) minRHS() float64 {
	mn := 0.0
	for i := 0; i < t.m; i++ {
		if v := t.a[i][t.n]; v < mn {
			mn = v
		}
	}
	return mn
}

// dualIterate runs dual simplex pivots until primal feasibility (RHS ≥ 0) is
// restored. Precondition: reduced costs are (near-)non-negative (dual
// feasible); the ratio test preserves that. A negative row with no negative
// entry certifies primal infeasibility (errInfeasible) when the violation is
// decisive; a merely roundoff-sized violation returns errStall so the caller
// can fall back to the cold path rather than mislabel a feasible program.
func (t *tableau) dualIterate(maxIters, banFrom int) (int, error) {
	obj := t.a[t.m]
	iters := 0
	for {
		if iters >= maxIters {
			return iters, ErrIterationLimit
		}
		// Leaving row: most negative basic value.
		leave := -1
		worst := -1e-9
		for i := 0; i < t.m; i++ {
			if v := t.a[i][t.n]; v < worst {
				worst = v
				leave = i
			}
		}
		if leave == -1 {
			return iters, nil // primal feasible
		}
		// Entering column: dual ratio test over negative entries. Ties —
		// ubiquitous on degenerate CTMDP duals — break towards the largest
		// pivot magnitude: bigger pivots both bound tableau growth and take
		// longer steps out of the degenerate vertex than Bland's lowest
		// index, which crawls. Termination is still safeguarded by maxIters
		// (and every caller treats that as "go re-solve cold").
		enter := -1
		bestRatio := math.Inf(1)
		bestPivot := 0.0
		for j := 0; j < t.n && j < banFrom; j++ {
			aij := t.a[leave][j]
			if aij >= -pivotEps {
				continue
			}
			ratio := math.Max(obj[j], 0) / -aij
			switch {
			case ratio < bestRatio-1e-12:
				bestRatio = ratio
				bestPivot = -aij
				enter = j
			case ratio <= bestRatio+1e-12 && -aij > bestPivot:
				if ratio < bestRatio {
					bestRatio = ratio
				}
				bestPivot = -aij
				enter = j
			}
		}
		if enter == -1 {
			if worst > -1e-6 {
				return iters, errStall
			}
			return iters, errInfeasible
		}
		t.pivot(leave, enter)
		iters++
	}
}

type simplexErr string

func (e simplexErr) Error() string { return string(e) }

const (
	errUnbounded  = simplexErr("lp: unbounded")
	errInfeasible = simplexErr("lp: infeasible row")
	errStall      = simplexErr("lp: warm start stalled")
)

// iterate runs simplex pivots until optimal, unbounded or the iteration cap.
// Columns at index >= banFrom are never entered (used to keep artificials out
// during phase 2). Pivoting uses Dantzig's rule (most negative reduced cost)
// for speed; a run of pivots with no objective progress flips it to Bland's
// rule permanently, which guarantees termination (switching back on
// roundoff-scale "improvements" can livelock between the two rules).
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
		// Ratio test with a numerical-stability tie-break. CTMDP balance
		// systems are maximally degenerate (almost every RHS is 0): many
		// rows tie at ratio 0, and repeatedly pivoting on tiny entries
		// blows the tableau up until "reduced costs" are pure noise. Among
		// (near-)minimal-ratio rows we therefore pivot on the LARGEST
		// entry in the entering column, which keeps growth bounded.
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
	for i := 0; i <= t.m; i++ {
		if i == row {
			continue
		}
		ri := t.a[i]
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
