// Package linalg provides the linear-algebra kernel used by the CTMDP
// solver and the nonlinear (quadratic) coupled-system solver: row-major
// dense matrices, LU decomposition with partial pivoting, linear solves and
// vector helpers. Policy iteration's evaluations (internal/ctmdp)
// factorise with them. StationaryDense, the dense-LU stationary solve of a
// CTMC generator, is never called on the served path: it is the tests'
// referee of policy iteration's distributions and the inner solve of
// nonlinear.Picard.
//
// The package deliberately implements only what the buffer-sizing pipeline
// needs. Everything is float64 and allocation patterns are predictable so
// the CTMDP inner loop can reuse buffers.
package linalg

import "errors"

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
