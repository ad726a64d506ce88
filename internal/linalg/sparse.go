package linalg

import (
	"fmt"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row form. Row i's entries live
// in Col[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], with column
// indices strictly increasing inside each row.
//
// CSR exists for the large generator matrices of the CTMDP pipeline: a
// subsystem chain with n states has O(n) transitions (a handful per state),
// so the dense n×n representation wastes both memory and matvec time once n
// grows past a few hundred states.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len == Rows+1
	Col        []int // len == NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (s *CSR) NNZ() int { return len(s.Val) }

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

// MatVec computes y = S·x.
func (s *CSR) MatVec(x []float64) ([]float64, error) {
	if len(x) != s.Cols {
		return nil, fmt.Errorf("%w: sparse matvec %dx%d by vec %d", ErrShape, s.Rows, s.Cols, len(x))
	}
	y := make([]float64, s.Rows)
	s.MatVecTo(y, x)
	return y, nil
}

// MatVecTo computes y = S·x into a caller-owned slice (no allocation).
// Lengths must already match.
//
// The inner loop is 4-way unrolled into independent partial sums: the gather
// loads x[Col[k]] dominate, and breaking the serial dependence on one
// accumulator lets the CPU overlap them. Generator rows in this repository
// carry a handful of entries, so the unrolled block plus a short tail covers
// the common case with at most one loop iteration.
func (s *CSR) MatVecTo(y, x []float64) {
	col, val := s.Col, s.Val
	for i := 0; i < s.Rows; i++ {
		k, end := s.RowPtr[i], s.RowPtr[i+1]
		var s0, s1, s2, s3 float64
		for ; k+4 <= end; k += 4 {
			s0 += val[k] * x[col[k]]
			s1 += val[k+1] * x[col[k+1]]
			s2 += val[k+2] * x[col[k+2]]
			s3 += val[k+3] * x[col[k+3]]
		}
		for ; k < end; k++ {
			s0 += val[k] * x[col[k]]
		}
		y[i] = (s0 + s1) + (s2 + s3)
	}
}

// T returns the transpose in CSR form (built in one counting pass plus one
// scatter pass, O(NNZ)).
func (s *CSR) T() *CSR {
	t := &CSR{
		Rows:   s.Cols,
		Cols:   s.Rows,
		RowPtr: make([]int, s.Cols+1),
		Col:    make([]int, s.NNZ()),
		Val:    make([]float64, s.NNZ()),
	}
	for _, j := range s.Col {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int, t.Rows)
	copy(next, t.RowPtr[:t.Rows])
	for i := 0; i < s.Rows; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			j := s.Col[k]
			p := next[j]
			t.Col[p] = i
			t.Val[p] = s.Val[k]
			next[j]++
		}
	}
	return t
}

// Density returns NNZ / (Rows·Cols), the stored fraction.
func (s *CSR) Density() float64 {
	if s.Rows == 0 || s.Cols == 0 {
		return 0
	}
	return float64(s.NNZ()) / (float64(s.Rows) * float64(s.Cols))
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
