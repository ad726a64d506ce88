package nonlinear

import (
	"fmt"

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
			pi, err := linalg.StationaryDense(cs.generatorFor(v, m))
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
