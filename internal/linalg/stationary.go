package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("linalg: iteration did not converge")

// IterOptions tunes the iterative stationary solvers. Zero values pick
// defaults good for the CTMDP pipeline's 1e-8 agreement requirement.
type IterOptions struct {
	// Tol is the convergence tolerance on the balance-equation residual
	// max_j |(πQ)_j| relative to the largest exit rate. Default 1e-12.
	Tol float64
	// MaxIters bounds solver sweeps. Default 20000.
	MaxIters int
	// Init optionally warm-starts the iteration from a prior distribution
	// instead of the uniform one. It must have one entry per state; it is
	// copied and renormalised, so the caller's slice is never written. A
	// wrong-length, non-finite or massless prior silently falls back to the
	// uniform start — a warm start is a hint, never a correctness input. The
	// converged answer satisfies the same residual tolerance either way (the
	// solve-cache's warm/cold gate pins agreement to 1e-8); only the sweep
	// count changes.
	Init []float64
}

// initial returns the starting distribution: the validated, renormalised
// warm-start prior when one is usable, else uniform.
func (o IterOptions) initial(n int) []float64 {
	pi := make([]float64, n)
	if len(o.Init) == n {
		var mass float64
		ok := true
		for _, v := range o.Init {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
				break
			}
			mass += v
		}
		if ok && mass > 0 && !math.IsInf(mass, 0) {
			for i, v := range o.Init {
				pi[i] = v / mass
			}
			return pi
		}
	}
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	return pi
}

func (o IterOptions) withDefaults() IterOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 20000
	}
	return o
}

// DenseThreshold is the state count below which Stationary solves directly
// with StationaryDense. Measured crossover (reference container, 2026-08-08;
// see PERFORMANCE.md "Kernels, measured"): dense LU ties Gauss–Seidel around
// 32–48 states and is 4× slower by 64.
const DenseThreshold = 48

// Stationary computes the stationary distribution of the CTMC with generator
// q, picking the solver by state count: StationaryDense below
// DenseThreshold, StationarySparse from there. opts reaches only the
// iterative solver; the dense solve has no iteration to seed or bound.
func Stationary(q *CSR, opts IterOptions) ([]float64, error) {
	if q.Rows < DenseThreshold {
		return StationaryDense(q)
	}
	return StationarySparse(q, opts)
}

// StationaryDense computes the stationary distribution π of the CTMC with
// generator q directly: it solves Qᵀπ = 0 with the last equation replaced by
// Σπ = 1 by dense LU — exact up to roundoff, O(n³). Only q's off-diagonal
// rates are read (in CSR order); each diagonal entry is rebuilt by
// subtracting its row's rates. The chain must have a single recurrent class:
// otherwise the solve is singular or the solution carries negative mass, and
// both are errors.
func StationaryDense(q *CSR) ([]float64, error) {
	n := q.Rows
	if n == 0 || q.Cols != n {
		return nil, fmt.Errorf("%w: generator %dx%d", ErrShape, q.Rows, q.Cols)
	}
	a := NewMatrix(n, n) // Qᵀ
	for i := 0; i < n; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			j, rate := q.Col[k], q.Val[k]
			if j == i {
				continue
			}
			if rate < 0 {
				return nil, fmt.Errorf("linalg: negative rate %v for (%d,%d)", rate, i, j)
			}
			a.Add(j, i, rate)
			a.Add(i, i, -rate)
		}
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("linalg: stationary solve: %w", err)
	}
	var sum float64
	for i, v := range pi {
		if v < -1e-8 {
			return nil, fmt.Errorf("linalg: stationary solution has negative mass %v at state %d (reducible chain?)", v, i)
		}
		if v < 0 {
			pi[i] = 0
			v = 0
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("linalg: stationary mass %v != 1", sum)
	}
	Scale(1/sum, pi)
	return pi, nil
}

// StationaryGaussSeidel computes the stationary distribution π of the CTMC
// with generator Q, solving πQ = 0, Σπ = 1 by Gauss–Seidel sweeps on the
// transposed system Qᵀπ = 0. q must be a valid generator in CSR form
// (non-negative off-diagonals, rows summing to zero); the chain must be
// irreducible for the answer to be the unique stationary distribution.
//
// Each sweep updates π_i ← (Σ_{j≠i} q_ji·π_j) / (−q_ii) in place and then
// renormalises. For irreducible generators this is the classical iterative
// stationary method (Stewart, "Introduction to the Numerical Solution of
// Markov Chains") and converges geometrically.
func StationaryGaussSeidel(q *CSR, opts IterOptions) ([]float64, error) {
	opts = opts.withDefaults()
	n := q.Rows
	if n == 0 || q.Cols != n {
		return nil, fmt.Errorf("%w: generator %dx%d", ErrShape, q.Rows, q.Cols)
	}
	qt := q.T() // row i of qt holds incoming rates q_ji plus the diagonal q_ii
	diag, err := generatorDiag(qt)
	if err != nil {
		return nil, err
	}

	pi := opts.initial(n)
	res := make([]float64, n)
	scale := rateScale(q)
	for it := 0; it < opts.MaxIters; it++ {
		gsSweep(qt, diag, pi)
		s := Sum(pi)
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("linalg: Gauss–Seidel collapsed (mass %v)", s)
		}
		Scale(1/s, pi)
		if stationaryResidual(q, pi, res) <= opts.Tol*scale {
			return pi, nil
		}
	}
	return nil, ErrNoConvergence
}

// generatorDiag extracts the diagonal of Q from its transpose, rejecting
// states with no exit rate (absorbing states make the stationary distribution
// degenerate and break the division by the diagonal).
func generatorDiag(qt *CSR) ([]float64, error) {
	n := qt.Rows
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		found := false
		for k := qt.RowPtr[i]; k < qt.RowPtr[i+1]; k++ {
			if qt.Col[k] == i {
				diag[i] = qt.Val[k]
				found = true
				break
			}
		}
		if !found || diag[i] >= 0 {
			return nil, fmt.Errorf("linalg: state %d has no exit rate (absorbing or empty row)", i)
		}
	}
	return diag, nil
}

// gsSweep runs one in-place Gauss–Seidel sweep π_i ← (Σ_{j≠i} q_ji·π_j)/(−q_ii)
// over the transposed generator.
func gsSweep(qt *CSR, diag, pi []float64) {
	n := qt.Rows
	for i := 0; i < n; i++ {
		var in float64
		for k := qt.RowPtr[i]; k < qt.RowPtr[i+1]; k++ {
			if j := qt.Col[k]; j != i {
				in += qt.Val[k] * pi[j]
			}
		}
		pi[i] = in / -diag[i]
	}
}

// StationaryPower computes the stationary distribution of the CTMC with
// generator Q by power iteration on the uniformised DTMC P = I + Q/Λ with
// Λ = 1.05·max_i |q_ii|. Slower than Gauss–Seidel per digit of accuracy but
// unconditionally stable; the auto path uses it as the fallback.
func StationaryPower(q *CSR, opts IterOptions) ([]float64, error) {
	opts = opts.withDefaults()
	n := q.Rows
	if n == 0 || q.Cols != n {
		return nil, fmt.Errorf("%w: generator %dx%d", ErrShape, q.Rows, q.Cols)
	}
	var maxDiag float64
	for i := 0; i < n; i++ {
		if d := -q.At(i, i); d > maxDiag {
			maxDiag = d
		}
	}
	if maxDiag <= 0 {
		return nil, errors.New("linalg: generator has no transitions")
	}
	rate := 1.05 * maxDiag
	qt := q.T()

	pi := opts.initial(n)
	next := make([]float64, n)
	res := make([]float64, n)
	scale := rateScale(q)
	for it := 0; it < opts.MaxIters; it++ {
		// next = π·P = π + (π·Q)/Λ, computed via the transpose:
		// (π·Q)_j = Σ_i π_i q_ij = Σ over row j of qt.
		for j := 0; j < n; j++ {
			var flow float64
			for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
				flow += qt.Val[k] * pi[qt.Col[k]]
			}
			next[j] = pi[j] + flow/rate
		}
		pi, next = next, pi
		s := Sum(pi)
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("linalg: power iteration collapsed (mass %v)", s)
		}
		Scale(1/s, pi)
		if stationaryResidual(q, pi, res) <= opts.Tol*scale {
			return pi, nil
		}
	}
	return nil, ErrNoConvergence
}

// StationarySparse computes the stationary distribution of the generator,
// trying Gauss–Seidel first and falling back to power iteration when the
// sweep diverges or stalls. Stationary uses it from DenseThreshold states.
func StationarySparse(q *CSR, opts IterOptions) ([]float64, error) {
	pi, err := StationaryGaussSeidel(q, opts)
	if err == nil {
		return pi, nil
	}
	if pi2, err2 := StationaryPower(q, opts); err2 == nil {
		return pi2, nil
	}
	return nil, err
}

// stationaryResidual returns max_j |(πQ)_j|, the unbalance of the candidate
// distribution. res is caller-owned scratch of length q.Cols — the check runs
// once per sweep, and allocating it there dominated the solvers' allocation
// profiles.
func stationaryResidual(q *CSR, pi, res []float64) float64 {
	for j := range res {
		res[j] = 0
	}
	for i := 0; i < q.Rows; i++ {
		v := pi[i]
		if v == 0 {
			continue
		}
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			res[q.Col[k]] += v * q.Val[k]
		}
	}
	return NormInf(res)
}

// rateScale returns the largest exit rate of the generator, used to make the
// convergence tolerance relative to the chain's time scale.
func rateScale(q *CSR) float64 {
	var mx float64
	for i := 0; i < q.Rows; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if q.Col[k] == i {
				if d := -q.Val[k]; d > mx {
					mx = d
				}
			}
		}
	}
	if mx == 0 {
		return 1
	}
	return mx
}
