package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// generatorOf assembles a CSR generator from off-diagonal rates, adding each
// row's negated exit rate on the diagonal.
func generatorOf(n int, rates map[[2]int]float64) *CSR {
	b := NewSparseBuilder(n, n)
	for ij, r := range rates {
		b.Add(ij[0], ij[1], r)
		b.Add(ij[0], ij[0], -r)
	}
	return b.Build()
}

func TestStationaryDenseTwoState(t *testing.T) {
	// 0 -a-> 1, 1 -b-> 0 has π = (b, a)/(a+b).
	a, b := 2.0, 3.0
	pi, err := StationaryDense(generatorOf(2, map[[2]int]float64{{0, 1}: a, {1, 0}: b}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-b/(a+b)) > 1e-12 || math.Abs(pi[1]-a/(a+b)) > 1e-12 {
		t.Fatalf("π = %v, want [%v %v]", pi, b/(a+b), a/(a+b))
	}
}

// TestStationaryDenseReducible: a chain without a unique stationary
// distribution must be an error, not an arbitrary answer.
func TestStationaryDenseReducible(t *testing.T) {
	for name, q := range map[string]*CSR{
		// Both states absorbing: the all-zero generator.
		"absorbing": NewSparseBuilder(2, 2).Build(),
		// Two closed classes {0,1} and {2,3}.
		"two-classes": generatorOf(4, map[[2]int]float64{
			{0, 1}: 2, {1, 0}: 1, {2, 3}: 4, {3, 2}: 3,
		}),
	} {
		if pi, err := StationaryDense(q); err == nil {
			t.Errorf("%s: reducible chain returned π = %v", name, pi)
		}
	}
}

func TestStationaryDenseNegativeRate(t *testing.T) {
	q := generatorOf(2, map[[2]int]float64{{0, 1}: -1, {1, 0}: 1})
	if _, err := StationaryDense(q); err == nil {
		t.Fatal("negative transition rate accepted")
	}
}

func TestStationaryDenseEmpty(t *testing.T) {
	if _, err := StationaryDense(NewSparseBuilder(0, 0).Build()); err == nil {
		t.Fatal("empty generator accepted")
	}
	if _, err := StationaryDense(NewSparseBuilder(2, 3).Build()); err == nil {
		t.Fatal("non-square generator accepted")
	}
}

// Property: for random irreducible chains, the dense stationary distribution
// sums to 1, is non-negative, and satisfies the balance equations πQ ≈ 0.
func TestStationaryDenseBalanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + rand.New(rand.NewSource(seed)).Intn(8)
		dense, q := randomGenerator(n, n, seed)
		pi, err := StationaryDense(q)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range pi {
			if v < 0 {
				return false
			}
			sum += v
		}
		flow, err := dense.T().MatVec(pi) // (πQ)ᵀ
		return err == nil && math.Abs(sum-1) <= 1e-12 && NormInf(flow) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a birth–death chain with state-dependent rates, the dense
// solve matches the product form π_{i+1} = π_i·birth_i/death_i.
func TestStationaryDenseBirthDeathProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		rates := make(map[[2]int]float64, 2*n)
		prod := make([]float64, n+1)
		prod[0] = 1
		sum := 1.0
		for i := 0; i < n; i++ {
			birth := 0.1 + rng.Float64()*4
			death := 0.1 + rng.Float64()*4
			rates[[2]int{i, i + 1}] = birth
			rates[[2]int{i + 1, i}] = death
			prod[i+1] = prod[i] * birth / death
			sum += prod[i+1]
		}
		pi, err := StationaryDense(generatorOf(n+1, rates))
		if err != nil {
			return false
		}
		for i := range prod {
			if math.Abs(prod[i]/sum-pi[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
