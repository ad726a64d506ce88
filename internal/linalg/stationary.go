package linalg

import (
	"fmt"
	"math"
)

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
