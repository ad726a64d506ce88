package linalg

import (
	"fmt"
	"math"
)

// LU holds an LU decomposition with partial pivoting: P·A = L·U where L is
// unit lower triangular and U is upper triangular, both stored in lu.
type LU struct {
	lu    *Matrix
	pivot []int
}

// Factor computes the LU decomposition of a square matrix. It returns
// ErrSingular if a pivot is (effectively) zero.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at/below row k.
		p, best := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > best {
				p, best = i, a
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("%w: zero pivot in column %d", ErrSingular, k)
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			pivot[k], pivot[p] = pivot[p], pivot[k]
		}
		pk := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pk
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// Solve solves A·x = b using the factorisation. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve with rhs len %d, want %d", ErrShape, len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution (L is unit lower).
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Solve solves A·x = b directly (factor + solve). A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Residual returns max_i |A·x − b|_i, a cheap solve-quality check.
func Residual(a *Matrix, x, b []float64) (float64, error) {
	ax, err := a.MatVec(x)
	if err != nil {
		return 0, err
	}
	if len(b) != len(ax) {
		return 0, ErrShape
	}
	var mx float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx, nil
}
