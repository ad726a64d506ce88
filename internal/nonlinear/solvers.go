package nonlinear

import (
	"fmt"
	"math"

	"socbuf/internal/linalg"
)

// Diagnostics records how a solve went. Failure to converge is DATA here,
// not an error: the paper's point is precisely that generic solvers struggle
// on the coupled system, so callers inspect Converged and History.
type Diagnostics struct {
	Converged  bool
	Iterations int
	Residual   float64   // final ∞-norm of the residual
	History    []float64 // residual after every iteration
	Reason     string    // human-readable outcome
}

// PicardOptions tunes the fixed-point solver.
type PicardOptions struct {
	MaxIters int     // default 200
	Tol      float64 // default 1e-9
	Damping  float64 // new = damping·new + (1−damping)·old; default 1 (undamped)
}

// Picard runs fixed-point iteration: freeze every bus's gate availabilities,
// solve each bus as a linear CTMC, update availabilities, repeat. This is
// the "natural" decoupling a practitioner tries first; on loaded systems the
// undamped variant oscillates.
func (cs *CoupledSystem) Picard(opt PicardOptions) ([]float64, *Diagnostics, error) {
	if opt.MaxIters <= 0 {
		opt.MaxIters = 200
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	if opt.Damping <= 0 || opt.Damping > 1 {
		opt.Damping = 1
	}
	v := cs.InitialGuess()
	diag := &Diagnostics{}
	for it := 0; it < opt.MaxIters; it++ {
		next := make([]float64, cs.total)
		for m := range cs.Buses {
			pi, err := linalg.StationaryDense(linalg.FromDense(cs.generatorFor(v, m), 0))
			if err != nil {
				diag.Reason = fmt.Sprintf("bus %s stationary solve failed at iteration %d: %v", cs.Buses[m].ID, it, err)
				diag.Iterations = it
				return v, diag, nil
			}
			copy(next[cs.offset[m]:cs.offset[m]+cs.states[m]], pi)
		}
		for i := range v {
			v[i] = opt.Damping*next[i] + (1-opt.Damping)*v[i]
		}
		res, err := cs.Residual(v)
		if err != nil {
			return nil, nil, err
		}
		r := linalg.NormInf(res)
		diag.History = append(diag.History, r)
		diag.Iterations = it + 1
		diag.Residual = r
		if r < opt.Tol {
			diag.Converged = true
			diag.Reason = "residual below tolerance"
			return v, diag, nil
		}
	}
	diag.Reason = "iteration limit reached"
	return v, diag, nil
}

// NewtonOptions tunes the Newton solver.
type NewtonOptions struct {
	MaxIters int     // default 100
	Tol      float64 // default 1e-10
	Damping  float64 // step size in (0,1]; default 1 (full, undamped steps)
	FDStep   float64 // finite-difference step; default 1e-7
}

// Newton runs (optionally damped) Newton iteration on the stacked residual
// with a forward-difference Jacobian. Undamped Newton from the uniform guess
// diverges or hits singular Jacobians on loaded coupled systems — the
// reproduction of the paper's "we were not able to get solutions".
func (cs *CoupledSystem) Newton(opt NewtonOptions) ([]float64, *Diagnostics, error) {
	if opt.MaxIters <= 0 {
		opt.MaxIters = 100
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	if opt.Damping <= 0 || opt.Damping > 1 {
		opt.Damping = 1
	}
	if opt.FDStep <= 0 {
		opt.FDStep = 1e-7
	}
	v := cs.InitialGuess()
	diag := &Diagnostics{}
	n := cs.total
	for it := 0; it < opt.MaxIters; it++ {
		f, err := cs.Residual(v)
		if err != nil {
			return nil, nil, err
		}
		r := linalg.NormInf(f)
		diag.History = append(diag.History, r)
		diag.Iterations = it
		diag.Residual = r
		if r < opt.Tol {
			diag.Converged = true
			diag.Reason = "residual below tolerance"
			return v, diag, nil
		}
		if math.IsNaN(r) || math.IsInf(r, 0) || r > 1e12 {
			diag.Reason = fmt.Sprintf("diverged at iteration %d (residual %v)", it, r)
			return v, diag, nil
		}
		// Forward-difference Jacobian.
		jac := linalg.NewMatrix(n, n)
		for j := 0; j < n; j++ {
			old := v[j]
			v[j] = old + opt.FDStep
			fj, err := cs.Residual(v)
			v[j] = old
			if err != nil {
				return nil, nil, err
			}
			for i := 0; i < n; i++ {
				jac.Set(i, j, (fj[i]-f[i])/opt.FDStep)
			}
		}
		neg := make([]float64, n)
		for i := range f {
			neg[i] = -f[i]
		}
		step, err := linalg.Solve(jac, neg)
		if err != nil {
			diag.Reason = fmt.Sprintf("singular Jacobian at iteration %d", it)
			return v, diag, nil
		}
		for i := range v {
			v[i] += opt.Damping * step[i]
		}
	}
	diag.Reason = "iteration limit reached"
	return v, diag, nil
}
