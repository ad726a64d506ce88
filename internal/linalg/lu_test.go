package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matrixOf builds a matrix from its rows.
func matrixOf(rows ...[]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// residual returns max_i |(A·x − b)_i|, a cheap solve-quality check.
func residual(a *Matrix, x, b []float64) float64 {
	var mx float64
	for i := range b {
		s := -b[i]
		for j, v := range a.Row(i) {
			s += v * x[j]
		}
		mx = math.Max(mx, math.Abs(s))
	}
	return mx
}

func TestSolveKnownSystem(t *testing.T) {
	a := matrixOf(
		[]float64{2, 1, -1},
		[]float64{-3, -1, 2},
		[]float64{-2, 1, 2},
	)
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-9) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

// TestSolveTMatchesTransposeProperty: SolveT on A's factors solves the
// system of Aᵀ, which the explicit transpose solves too.
func TestSolveTMatchesTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := Factor(a)
		if err != nil {
			return true // singular draws are another test's business
		}
		got, err := lu.SolveT(b)
		if err != nil {
			return false
		}
		at := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		want, err := Solve(at, b)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEq(got[i], want[i], 1e-8*(1+math.Abs(want[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	lu, err := Factor(matrixOf([]float64{1, 0}, []float64{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lu.SolveT([]float64{1}); err == nil {
		t.Fatal("short right-hand side accepted")
	}
}

// TestInverseIsInverse: A·A⁻¹ = I for random well-posed draws.
func TestInverseIsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)) // diagonally dominant: safely non-singular
		}
		lu, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		inv := lu.Inverse()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a.At(i, k) * inv.At(k, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(s, want, 1e-10) {
					t.Fatalf("n=%d: (A·A⁻¹)[%d][%d] = %v", n, i, j, s)
				}
			}
		}
	}
}

// TestFactorInPlace: FactorInPlace gives Factor's factors bit for bit,
// writing them over its argument, while Factor leaves its argument as it
// was.
func TestFactorInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(6, 6)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	orig := a.Clone()
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(orig.Data[i]) {
			t.Fatal("Factor wrote to its argument")
		}
	}
	g, err := FactorInPlace(a)
	if err != nil {
		t.Fatal(err)
	}
	if g.lu != a {
		t.Fatal("FactorInPlace did not factor in place")
	}
	for i, v := range f.lu.Data {
		if math.Float64bits(v) != math.Float64bits(a.Data[i]) {
			t.Fatalf("factor entry %d: in place %v, copied %v", i, a.Data[i], v)
		}
	}
	for i, p := range f.pivot {
		if g.pivot[i] != p {
			t.Fatalf("pivot %d: in place %d, copied %d", i, g.pivot[i], p)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := matrixOf([]float64{1, 2}, []float64{2, 4})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system solved without error")
	}
}

func TestFactorNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Fatal("LU of non-square accepted")
	}
}

func TestSolveWrongRHSLen(t *testing.T) {
	f, err := Factor(matrixOf([]float64{1, 0, 0}, []float64{0, 1, 0}, []float64{0, 0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("rhs length mismatch accepted")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a pivot swap.
	a := matrixOf([]float64{0, 1}, []float64{1, 0})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 7, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestResidualZeroForExactSolve(t *testing.T) {
	a := matrixOf([]float64{3, 1}, []float64{1, 2})
	b := []float64{9, 8}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("residual = %v", r)
	}
}

// Property: for random diagonally-dominant systems, Solve produces residual
// ~0 and LU reconstructs the solution of the original system.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			a.Add(i, i, rowSum+1) // diagonal dominance => nonsingular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, err := Solve(a, b)
		return err == nil && residual(a, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
