package queueing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"socbuf/internal/linalg"
)

func TestNewMM1KValidation(t *testing.T) {
	cases := []struct {
		lambda, mu float64
		k          int
	}{
		{0, 1, 1}, {-1, 1, 1}, {1, 0, 1}, {1, -2, 1}, {1, 1, 0},
		{math.NaN(), 1, 1}, {1, math.Inf(1), 1},
	}
	for _, c := range cases {
		if _, err := NewMM1K(c.lambda, c.mu, c.k); err == nil {
			t.Fatalf("accepted invalid (%v,%v,%d)", c.lambda, c.mu, c.k)
		}
	}
}

func TestDistributionSumsToOne(t *testing.T) {
	q, err := NewMM1K(2, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	pi := q.Distribution()
	var sum float64
	for _, p := range pi {
		if p < 0 {
			t.Fatalf("negative probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestRhoOneUniform(t *testing.T) {
	q, err := NewMM1K(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pi := q.Distribution()
	for i, p := range pi {
		if math.Abs(p-0.25) > 1e-12 {
			t.Fatalf("pi[%d] = %v, want 0.25", i, p)
		}
	}
	if math.Abs(q.Blocking()-0.25) > 1e-12 {
		t.Fatalf("blocking = %v", q.Blocking())
	}
}

func TestKnownBlocking(t *testing.T) {
	// M/M/1/1 is Erlang-B with 1 server: B = a/(1+a).
	q, err := NewMM1K(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Blocking()-0.5) > 1e-12 {
		t.Fatalf("blocking = %v, want 0.5", q.Blocking())
	}
}

func TestLossThroughputConservation(t *testing.T) {
	q, err := NewMM1K(3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.LossRate()+q.Throughput()-q.Lambda) > 1e-12 {
		t.Fatal("loss + throughput != lambda")
	}
}

// Property: the closed form matches the stationary distribution of the
// equivalent birth–death CTMC, solved directly from its generator.
func TestMM1KMatchesCTMCProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := 0.2 + rng.Float64()*4
		mu := 0.2 + rng.Float64()*4
		k := 1 + rng.Intn(10)
		q, err := NewMM1K(lambda, mu, k)
		if err != nil {
			return false
		}
		gen := linalg.NewMatrix(k+1, k+1)
		for i := 0; i < k; i++ {
			gen.Add(i, i+1, lambda)
			gen.Add(i, i, -lambda)
			gen.Add(i+1, i, mu)
			gen.Add(i+1, i+1, -mu)
		}
		ctmc, err := linalg.StationaryDense(gen)
		if err != nil {
			return false
		}
		closed := q.Distribution()
		for i := range closed {
			if math.Abs(closed[i]-ctmc[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: blocking decreases with capacity and increases with load.
func TestBlockingMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := 0.2 + rng.Float64()*3
		mu := 0.2 + rng.Float64()*3
		k := 1 + rng.Intn(8)
		q1, err := NewMM1K(lambda, mu, k)
		if err != nil {
			return false
		}
		q2, err := NewMM1K(lambda, mu, k+1)
		if err != nil {
			return false
		}
		if q2.Blocking() > q1.Blocking()+1e-12 {
			return false
		}
		q3, err := NewMM1K(lambda*1.5, mu, k)
		if err != nil {
			return false
		}
		return q3.Blocking() >= q1.Blocking()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
