// Package linalg provides the linear-algebra kernel used by the CTMDP
// solver and the nonlinear (quadratic) coupled-system solver, and is the one
// home of CTMC stationary solves. It has two halves:
//
//   - dense: row-major matrices, LU decomposition with partial pivoting,
//     linear solves and vector helpers — the exact path for small systems;
//   - sparse: CSR matrices (SparseBuilder, CSR) and the iterative
//     stationary solvers of CTMC generators — StationaryGaussSeidel with
//     StationaryPower as the unconditionally stable fallback, combined in
//     StationarySparse. O(nnz) per sweep: the pipeline's chains have a
//     handful of transitions per state.
//
// Stationary takes a CSR generator and picks the solver by state count:
// the dense-LU StationaryDense below DenseThreshold states,
// StationarySparse from there. The pipeline's models have at most 81
// states (ctmdp.MaxStates).
//
// The iterative solvers accept a warm-start prior (IterOptions.Init), the
// hook the solve cache uses to seed a re-solve from a neighbouring cached
// solution. A prior is only a hint: the residual tolerance is unchanged, so
// warm and cold answers agree to the pipeline's 1e-8 gate, and unusable
// priors silently fall back to the uniform start.
//
// The package deliberately implements only what the buffer-sizing pipeline
// needs. Everything is float64 and allocation patterns are predictable so
// the CTMDP inner loop can reuse buffers.
package linalg

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a factorisation or solve meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i,j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MatVec computes y = M·x. len(x) must equal m.Cols.
func (m *Matrix) MatVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%w: matvec %dx%d by vec %d", ErrShape, m.Rows, m.Cols, len(x))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}
