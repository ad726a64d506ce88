package linalg

import (
	"fmt"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row form. Row i's entries live
// in Col[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], with column
// indices strictly increasing inside each row.
//
// CSR is the form generators are assembled in (SparseBuilder,
// ctmdp.PolicyChain) and StationaryDense reads: a chain with n states has
// O(n) transitions, a handful per state.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len == Rows+1
	Col        []int // len == len(Val)
	Val        []float64
}

// At returns element (i,j) by scanning row i. O(row length); intended for
// tests and debugging, not inner loops.
func (s *CSR) At(i, j int) float64 {
	for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
		if s.Col[k] == j {
			return s.Val[k]
		}
	}
	return 0
}

// SparseBuilder accumulates coordinate-form entries and compresses them into
// a CSR matrix. Duplicate (i,j) entries are summed, matching the AddRate
// semantics of generator assembly.
type SparseBuilder struct {
	rows, cols int
	ri, ci     []int
	v          []float64
}

// NewSparseBuilder returns an empty builder for an r×c matrix.
func NewSparseBuilder(r, c int) *SparseBuilder {
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	return &SparseBuilder{rows: r, cols: c}
}

// Add accumulates v at (i,j). Zero values are kept until Build, which drops
// entries that cancel to exactly zero only if they were never touched; exact
// structural zeros from cancellation stay stored (harmless for solvers).
func (b *SparseBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("linalg: sparse entry (%d,%d) outside %dx%d", i, j, b.rows, b.cols))
	}
	b.ri = append(b.ri, i)
	b.ci = append(b.ci, j)
	b.v = append(b.v, v)
}

// Build compresses the accumulated entries into CSR form, summing duplicate
// coordinates. The builder can be reused afterwards; further Adds extend the
// same triplet list.
func (b *SparseBuilder) Build() *CSR {
	order := make([]int, len(b.v))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ox, oy := order[x], order[y]
		if b.ri[ox] != b.ri[oy] {
			return b.ri[ox] < b.ri[oy]
		}
		return b.ci[ox] < b.ci[oy]
	})
	out := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	lastRow, lastCol := -1, -1
	for _, o := range order {
		i, j, v := b.ri[o], b.ci[o], b.v[o]
		if i == lastRow && j == lastCol {
			out.Val[len(out.Val)-1] += v
			continue
		}
		out.Col = append(out.Col, j)
		out.Val = append(out.Val, v)
		out.RowPtr[i+1]++
		lastRow, lastCol = i, j
	}
	for i := 0; i < b.rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

// FromDense converts a dense matrix to CSR, dropping entries with
// |v| <= dropTol (pass 0 to keep every nonzero exactly).
func FromDense(m *Matrix, dropTol float64) *CSR {
	b := NewSparseBuilder(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v != 0 && (dropTol <= 0 || v > dropTol || v < -dropTol) {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}
