package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestSparseBuilderRoundTrip(t *testing.T) {
	b := NewSparseBuilder(3, 4)
	b.Add(2, 1, 5)
	b.Add(0, 0, 1)
	b.Add(0, 3, 2)
	b.Add(2, 1, -2) // duplicate: summed
	b.Add(1, 2, 7)
	s := b.Build()
	if s.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4 (duplicates summed)", s.NNZ())
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

func TestSparseMatVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(13, 9)
	b := NewSparseBuilder(13, 9)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if rng.Float64() < 0.3 {
				v := rng.NormFloat64()
				m.Set(i, j, v)
				b.Add(i, j, v)
			}
		}
	}
	s := b.Build()
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := m.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("matvec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSparseTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewSparseBuilder(6, 8)
	m := NewMatrix(6, 8)
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			if rng.Float64() < 0.4 {
				v := rng.NormFloat64()
				b.Add(i, j, v)
				m.Set(i, j, v)
			}
		}
	}
	st := b.Build().T()
	mt := m.T()
	if st.Rows != 8 || st.Cols != 6 {
		t.Fatalf("transpose shape %dx%d", st.Rows, st.Cols)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 6; j++ {
			if math.Abs(st.At(i, j)-mt.At(i, j)) > 0 {
				t.Fatalf("T At(%d,%d) = %v, want %v", i, j, st.At(i, j), mt.At(i, j))
			}
		}
	}
}

func TestFromDense(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 0, 1e-14)
	s := FromDense(m, 1e-10)
	if s.NNZ() != 1 || s.At(0, 0) != 3 {
		t.Fatalf("FromDense dropped wrong entries: nnz=%d", s.NNZ())
	}
	s = FromDense(m, 0)
	if s.NNZ() != 2 {
		t.Fatalf("FromDense with zero dropTol lost entries: nnz=%d", s.NNZ())
	}
}

// randomGenerator builds an irreducible CTMC generator in both dense and CSR
// form: a ring (guaranteeing irreducibility) plus random extra transitions.
func randomGenerator(n int, extra int, seed int64) (*Matrix, *CSR) {
	rng := rand.New(rand.NewSource(seed))
	dense := NewMatrix(n, n)
	b := NewSparseBuilder(n, n)
	add := func(i, j int, v float64) {
		dense.Add(i, j, v)
		dense.Add(i, i, -v)
		b.Add(i, j, v)
		b.Add(i, i, -v)
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n, 0.5+rng.Float64())
	}
	for e := 0; e < extra; e++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i != j {
			add(i, j, rng.Float64())
		}
	}
	return dense, b.Build()
}

func TestStationaryGaussSeidelMatchesDense(t *testing.T) {
	for _, n := range []int{3, 10, 50, 200} {
		_, csr := randomGenerator(n, 3*n, int64(n))
		want, err := StationaryDense(csr)
		if err != nil {
			t.Fatalf("n=%d: dense: %v", n, err)
		}
		got, err := StationaryGaussSeidel(csr)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("n=%d: π[%d] = %v, dense %v (Δ=%g)", n, i, got[i], want[i], math.Abs(got[i]-want[i]))
			}
		}
	}
}

func TestStationaryPowerMatchesDense(t *testing.T) {
	_, csr := randomGenerator(40, 120, 99)
	want, err := StationaryDense(csr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stationaryPower(csr, 1e-13, 200000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("π[%d] = %v, dense %v", i, got[i], want[i])
		}
	}
}

func TestStationarySparseBirthDeath(t *testing.T) {
	// M/M/1/K has the known geometric stationary distribution.
	lambda, mu := 2.0, 3.0
	K := 6
	b := NewSparseBuilder(K+1, K+1)
	for k := 0; k <= K; k++ {
		var exit float64
		if k < K {
			b.Add(k, k+1, lambda)
			exit += lambda
		}
		if k > 0 {
			b.Add(k, k-1, mu)
			exit += mu
		}
		b.Add(k, k, -exit)
	}
	pi, err := StationarySparse(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	norm := (1 - math.Pow(rho, float64(K+1))) / (1 - rho)
	for k := 0; k <= K; k++ {
		want := math.Pow(rho, float64(k)) / norm
		if math.Abs(pi[k]-want) > 1e-10 {
			t.Fatalf("π[%d] = %v, analytic %v", k, pi[k], want)
		}
	}
}

func TestStationaryAbsorbingStateRejected(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(0, 0, -1)
	// State 1 absorbing: no exit rate.
	if _, err := StationaryGaussSeidel(b.Build()); err == nil {
		t.Fatal("absorbing chain accepted")
	}
}

func TestStationaryNoConvergenceBudget(t *testing.T) {
	_, csr := randomGenerator(50, 100, 1)
	if _, err := stationaryGaussSeidel(csr, 1e-14, 1); err == nil {
		t.Fatal("one-sweep budget converged to 1e-14 — residual check broken")
	}
}
