package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
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
		want, err := Solve(a.T(), b)
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
	lu, err := Factor(Identity(3))
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

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
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
	f, err := Factor(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("rhs length mismatch accepted")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a pivot swap.
	a, _ := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 7, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestResidualZeroForExactSolve(t *testing.T) {
	a, _ := FromRows([][]float64{{3, 1}, {1, 2}})
	b := []float64{9, 8}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Residual(a, x, b)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-10 {
		t.Fatalf("residual = %v", r)
	}
}

func TestResidualShapeError(t *testing.T) {
	a := Identity(2)
	if _, err := Residual(a, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("bad x length accepted")
	}
	if _, err := Residual(a, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("bad b length accepted")
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
		if err != nil {
			return false
		}
		r, err := Residual(a, x, b)
		return err == nil && r < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
