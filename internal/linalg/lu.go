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

// Factor computes the LU decomposition of a square matrix, leaving a as
// it is. It returns ErrSingular if a pivot is (effectively) zero.
func Factor(a *Matrix) (*LU, error) { return FactorInPlace(a.Clone()) }

// FactorInPlace is Factor without the copy: it overwrites lu with the
// factors, and the returned LU reads them from there, so lu must not
// change while the LU is in use.
func FactorInPlace(lu *Matrix) (*LU, error) {
	if lu.Rows != lu.Cols {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrShape, lu.Rows, lu.Cols)
	}
	n := lu.Rows
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
		rk := lu.Row(k)[k+1:]
		for i := k + 1; i < n; i++ {
			ri := lu.Row(i)
			m := ri[k] / pk
			ri[k] = m
			if m == 0 {
				continue
			}
			// Re-sliced to rk's length so the bounds checks hoist.
			ri = ri[k+1:]
			ri = ri[:len(rk)]
			for j, v := range rk {
				ri[j] -= float64(m * v)
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
	f.substitute(x)
	return x, nil
}

// substitute overwrites the permuted right-hand side x with the solution:
// forward through L (unit lower), then backward through U.
func (f *LU) substitute(x []float64) {
	n := len(x)
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= float64(row[j] * x[j])
		}
		x[i] = s
	}
	f.backward(x)
}

// backward overwrites x with the solution of U·y = x.
func (f *LU) backward(x []float64) {
	n := len(x)
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= float64(row[j] * x[j])
		}
		x[i] = s / row[i]
	}
}

// Inverse returns A⁻¹, column j solving A·x = e_j. The permuted unit
// vector is zero above its one, so the forward sweep starts there; the
// skipped terms are exact zeros, so every column has the bits Solve gives.
func (f *LU) Inverse() *Matrix {
	n := f.lu.Rows
	inv := NewMatrix(n, n)
	at := make([]int, n) // at[j]: the row the permutation moves e_j's one to
	for i, p := range f.pivot {
		at[p] = i
	}
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		clear(x)
		first := at[j]
		x[first] = 1
		for i := first + 1; i < n; i++ {
			s := 0.0
			for k, v := range f.lu.Row(i)[first:i] {
				s -= float64(v * x[first+k])
			}
			x[i] = s
		}
		f.backward(x)
		for i, v := range x {
			inv.Data[i*n+j] = v
		}
	}
	return inv
}

// SolveT solves the transposed system Aᵀ·x = b with the same
// factorisation: Aᵀ = Uᵀ·Lᵀ·P, so it substitutes forward through Uᵀ,
// backward through Lᵀ and undoes the row permutation. Both sweeps read the
// factors row by row. b is not modified.
func (f *LU) SolveT(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve with rhs len %d, want %d", ErrShape, len(b), n)
	}
	y := make([]float64, n)
	copy(y, b)
	// Uᵀ·y = b, column by column of Uᵀ (row by row of U).
	for j := 0; j < n; j++ {
		row := f.lu.Row(j)
		y[j] /= row[j]
		for i := j + 1; i < n; i++ {
			y[i] -= float64(row[i] * y[j])
		}
	}
	// Lᵀ·w = y (L is unit lower), from the last row of L up.
	for j := n - 1; j > 0; j-- {
		row := f.lu.Row(j)
		for i := 0; i < j; i++ {
			y[i] -= float64(row[i] * y[j])
		}
	}
	x := make([]float64, n)
	for i, p := range f.pivot {
		x[p] = y[i]
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
