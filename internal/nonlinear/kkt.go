package nonlinear

import (
	"math"

	"socbuf/internal/linalg"
)

// The optimisation variant of the coupled system: choose the arbitration
// freely (occupation-measure variables x_m(s,a) per bus) to minimise the
// loss rate, subject to balance equations whose service terms are gated by
// the OTHER buses' idle probability — itself a linear functional of that
// bus's x. The constraints are therefore bilinear in x: this is the paper's
// §2 system, a nonconvex quadratically-constrained program that a generic
// root-finder cannot reliably solve.
//
// KKTNewton applies the naive attack — Newton's method on the first-order
// KKT conditions, ignoring the x ≥ 0 inequalities (what happens when the
// system of "equality constraints and cost function with quadratic terms" is
// handed to an fsolve-style solver). The Diagnostics report what actually
// goes wrong: singular KKT matrices, divergence, or convergence to points
// with negative "probabilities" that are not valid solutions.

// kktVar is one occupation variable of the optimisation variant.
type kktVar struct {
	bus    int
	state  int
	action int // client index, -1 = idle (only in the all-empty state)
}

// KKTResult reports the outcome of KKTNewton.
type KKTResult struct {
	Diag *Diagnostics
	// X is the final occupation iterate (per kkt variable, internal order).
	X []float64
	// MinX is the most negative occupation value at the final iterate; a
	// valid solution needs MinX ≥ −tol.
	MinX float64
	// Valid reports Converged && MinX ≥ −1e-6: the solver found an actual
	// solution of the constrained system, not just a KKT stationary point.
	Valid bool
	// LossRate is the objective at the final iterate (meaningful only when
	// Valid).
	LossRate float64
}

// kktLayout enumerates variables and equality rows of the optimisation
// variant.
func (cs *CoupledSystem) kktLayout() (vars []kktVar, rows int) {
	for m := range cs.Buses {
		for s := 0; s < cs.states[m]; s++ {
			nonEmpty := false
			for c := range cs.Buses[m].Clients {
				if cs.level(m, s, c) > 0 {
					nonEmpty = true
					vars = append(vars, kktVar{bus: m, state: s, action: c})
				}
			}
			if !nonEmpty {
				vars = append(vars, kktVar{bus: m, state: s, action: -1})
			}
		}
		// Per bus: (states − 1) balance rows + 1 normalisation row.
		rows += cs.states[m]
	}
	return vars, rows
}

// idleMass returns Σ_a x(bus, all-empty state, a) — bus's availability as a
// linear functional of x — plus the gradient indices contributing to it.
func idleIndices(vars []kktVar, bus int) []int {
	var idx []int
	for i, v := range vars {
		if v.bus == bus && v.state == 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// kktConstraints evaluates the equality constraints g(x) (balance with
// bilinear gating + normalisation) and, via fn, scatters the partial
// derivatives ∂g_r/∂x_i. fn may be nil when only values are needed.
func (cs *CoupledSystem) kktConstraints(vars []kktVar, x []float64, fn func(row, col int, d float64)) []float64 {
	// Row layout: per bus, states-1 balance rows then 1 normalisation row.
	rowBase := make([]int, len(cs.Buses))
	base := 0
	for m := range cs.Buses {
		rowBase[m] = base
		base += cs.states[m]
	}
	g := make([]float64, base)

	avail := make([]float64, len(cs.Buses))
	availIdx := make([][]int, len(cs.Buses))
	for m := range cs.Buses {
		availIdx[m] = idleIndices(vars, m)
		for _, i := range availIdx[m] {
			avail[m] += x[i]
		}
	}

	scatterBalance := func(m, j, col int, d float64) {
		if j < cs.states[m]-1 { // last balance row dropped (redundant)
			row := rowBase[m] + j
			g[row] += float64(d * x[col])
			if fn != nil {
				fn(row, col, d)
			}
		}
	}

	for i, v := range vars {
		m := v.bus
		b := cs.Buses[m]
		// Arrivals out of (s) into (s + e_c).
		for c, cl := range b.Clients {
			if cl.Lambda > 0 && cs.level(m, v.state, c) < cl.Levels {
				t := v.state + cs.strides[m][c]
				scatterBalance(m, t, i, cl.Lambda)
				scatterBalance(m, v.state, i, -cl.Lambda)
			}
		}
		// Gated service when this var's action serves a client.
		if v.action >= 0 {
			gateProd := 1.0
			gates := b.Clients[v.action].Gates
			for _, gb := range gates {
				gateProd *= avail[gb]
			}
			rate := b.Mu * gateProd
			t := v.state - cs.strides[m][v.action]
			scatterBalance(m, t, i, rate)
			scatterBalance(m, v.state, i, -rate)
			// Bilinear part: derivative w.r.t. the gate masses.
			if fn != nil {
				for _, gb := range gates {
					rest := b.Mu
					for _, other := range gates {
						if other != gb {
							rest *= avail[other]
						}
					}
					for _, gi := range availIdx[gb] {
						if tr := rowBase[m] + t; t < cs.states[m]-1 {
							fn(tr, gi, rest*x[i])
						}
						if sr := rowBase[m] + v.state; v.state < cs.states[m]-1 {
							fn(sr, gi, -rest*x[i])
						}
					}
				}
			}
		}
	}
	// Normalisation rows.
	for m := range cs.Buses {
		row := rowBase[m] + cs.states[m] - 1
		var sum float64
		for i, v := range vars {
			if v.bus == m {
				sum += x[i]
				if fn != nil {
					fn(row, i, 1)
				}
			}
		}
		g[row] = sum - 1
	}
	return g
}

// kktCost returns the linear loss objective coefficients per variable.
func (cs *CoupledSystem) kktCost(vars []kktVar) []float64 {
	c := make([]float64, len(vars))
	for i, v := range vars {
		b := cs.Buses[v.bus]
		for cl, spec := range b.Clients {
			if cs.level(v.bus, v.state, cl) == spec.Levels {
				c[i] += spec.Lambda
			}
		}
	}
	return c
}

// NewtonOptions tunes KKTNewton.
type NewtonOptions struct {
	MaxIters int     // default 80
	Tol      float64 // default 1e-9
	Damping  float64 // step size in (0,1]; default 1 (full, undamped steps)
	FDStep   float64 // finite-difference step; default 1e-6
}

// KKTNewton runs Newton's method on the KKT conditions of the optimisation
// variant, with a forward-difference Jacobian. opt.Damping scales the Newton
// step. The x ≥ 0 constraints are deliberately not enforced — that is the
// point of the demonstration.
func (cs *CoupledSystem) KKTNewton(opt NewtonOptions) (*KKTResult, error) {
	if opt.MaxIters <= 0 {
		opt.MaxIters = 80
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	if opt.Damping <= 0 || opt.Damping > 1 {
		opt.Damping = 1
	}
	vars, ng := cs.kktLayout()
	nx := len(vars)
	n := nx + ng
	cost := cs.kktCost(vars)

	// Start from the uniform measure and zero multipliers.
	z := make([]float64, n)
	perBusVars := make([]int, len(cs.Buses))
	for _, v := range vars {
		perBusVars[v.bus]++
	}
	for i, v := range vars {
		z[i] = 1 / float64(perBusVars[v.bus])
	}

	res := &KKTResult{Diag: &Diagnostics{}}
	evalF := func(z []float64) ([]float64, *linalg.Matrix) {
		x := z[:nx]
		nu := z[nx:]
		jg := linalg.NewMatrix(ng, nx)
		g := cs.kktConstraints(vars, x, func(row, col int, d float64) { jg.Add(row, col, d) })
		f := make([]float64, n)
		// Stationarity: c + J_gᵀ ν = 0 (approximating the bilinear terms'
		// second-order cross effects via the numeric outer Jacobian below).
		for i := 0; i < nx; i++ {
			f[i] = cost[i]
			for r := 0; r < ng; r++ {
				f[i] += float64(jg.At(r, i) * nu[r])
			}
		}
		copy(f[nx:], g)
		return f, jg
	}

	fdStep := opt.FDStep
	if fdStep <= 0 {
		fdStep = 1e-6
	}
	for it := 0; it < opt.MaxIters; it++ {
		f, _ := evalF(z)
		r := linalg.NormInf(f)
		res.Diag.History = append(res.Diag.History, r)
		res.Diag.Iterations = it
		res.Diag.Residual = r
		if r < opt.Tol {
			res.Diag.Converged = true
			res.Diag.Reason = "KKT residual below tolerance"
			break
		}
		if math.IsNaN(r) || math.IsInf(r, 0) || r > 1e10 {
			res.Diag.Reason = "diverged"
			break
		}
		// Numeric Jacobian of the full KKT map.
		jac := linalg.NewMatrix(n, n)
		for j := 0; j < n; j++ {
			old := z[j]
			z[j] = old + fdStep
			fj, _ := evalF(z)
			z[j] = old
			for i := 0; i < n; i++ {
				jac.Set(i, j, (fj[i]-f[i])/fdStep)
			}
		}
		neg := make([]float64, n)
		for i := range f {
			neg[i] = -f[i]
		}
		step, err := linalg.Solve(jac, neg)
		if err != nil {
			res.Diag.Reason = "singular KKT matrix"
			break
		}
		for i := range z {
			z[i] += float64(opt.Damping * step[i])
		}
	}
	if res.Diag.Reason == "" {
		res.Diag.Reason = "iteration limit reached"
	}

	res.X = append([]float64(nil), z[:nx]...)
	res.MinX = math.Inf(1)
	for _, xi := range res.X {
		if xi < res.MinX {
			res.MinX = xi
		}
	}
	res.Valid = res.Diag.Converged && res.MinX >= -1e-6
	if res.Valid {
		for i, xi := range res.X {
			res.LossRate += float64(cost[i] * xi)
		}
	}
	return res, nil
}
