package linalg

import "testing"

func TestSparseBuilderRoundTrip(t *testing.T) {
	b := NewSparseBuilder(3, 4)
	b.Add(2, 1, 5)
	b.Add(0, 0, 1)
	b.Add(0, 3, 2)
	b.Add(2, 1, -2) // duplicate: summed
	b.Add(1, 2, 7)
	s := b.Build()
	if len(s.Val) != 4 {
		t.Fatalf("nnz = %d, want 4 (duplicates summed)", len(s.Val))
	}
	want := [][]float64{
		{1, 0, 0, 2},
		{0, 0, 7, 0},
		{0, 3, 0, 0},
	}
	for i := range want {
		for j := range want[i] {
			if got := s.At(i, j); got != want[i][j] {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
	// Column indices strictly increasing per row.
	for i := 0; i < s.Rows; i++ {
		for k := s.RowPtr[i] + 1; k < s.RowPtr[i+1]; k++ {
			if s.Col[k] <= s.Col[k-1] {
				t.Fatalf("row %d columns not increasing: %v", i, s.Col[s.RowPtr[i]:s.RowPtr[i+1]])
			}
		}
	}
}

func TestFromDense(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 0, 1e-14)
	s := FromDense(m, 1e-10)
	if len(s.Val) != 1 || s.At(0, 0) != 3 {
		t.Fatalf("FromDense dropped wrong entries: nnz=%d", len(s.Val))
	}
	s = FromDense(m, 0)
	if len(s.Val) != 2 {
		t.Fatalf("FromDense with zero dropTol lost entries: nnz=%d", len(s.Val))
	}
}
