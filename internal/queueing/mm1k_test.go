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
	eb, err := ErlangB(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eb-q.Blocking()) > 1e-12 {
		t.Fatalf("ErlangB = %v vs MM11 %v", eb, q.Blocking())
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

func TestMeanResidence(t *testing.T) {
	q, err := NewMM1K(1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	w, err := q.MeanResidence()
	if err != nil {
		t.Fatal(err)
	}
	// Near-M/M/1 at rho=0.5: W = 1/(mu-lambda) = 1; K=10 truncation shifts it
	// only slightly.
	if w < 0.8 || w > 1.05 {
		t.Fatalf("W = %v, want ≈ 1", w)
	}
}

func TestErlangBValidation(t *testing.T) {
	if _, err := ErlangB(-1, 2); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := ErlangB(1, -1); err == nil {
		t.Fatal("negative servers accepted")
	}
	b, err := ErlangB(5, 0)
	if err != nil || b != 1 {
		t.Fatalf("B(a,0) = %v, %v; want 1, nil", b, err)
	}
}

func TestErlangBMonotoneInServers(t *testing.T) {
	prev := 1.0
	for c := 1; c <= 10; c++ {
		b, err := ErlangB(3, c)
		if err != nil {
			t.Fatal(err)
		}
		if b >= prev {
			t.Fatalf("ErlangB not decreasing at c=%d: %v >= %v", c, b, prev)
		}
		prev = b
	}
}

func TestRequiredCapacity(t *testing.T) {
	k, err := RequiredCapacity(1, 2, 0.01, 100)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewMM1K(1, 2, k)
	if q.Blocking() > 0.01 {
		t.Fatalf("capacity %d still blocks at %v", k, q.Blocking())
	}
	if k > 1 {
		qSmaller, _ := NewMM1K(1, 2, k-1)
		if qSmaller.Blocking() <= 0.01 {
			t.Fatalf("capacity %d not minimal", k)
		}
	}
}

func TestRequiredCapacityErrors(t *testing.T) {
	if _, err := RequiredCapacity(1, 2, 0, 10); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, err := RequiredCapacity(1, 2, 1, 10); err == nil {
		t.Fatal("target 1 accepted")
	}
	// Overloaded queue can't reach 1e-9 blocking with tiny capacity.
	if _, err := RequiredCapacity(10, 1, 1e-9, 3); err == nil {
		t.Fatal("impossible target accepted")
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
		gen := linalg.NewSparseBuilder(k+1, k+1)
		for i := 0; i < k; i++ {
			gen.Add(i, i+1, lambda)
			gen.Add(i, i, -lambda)
			gen.Add(i+1, i, mu)
			gen.Add(i+1, i+1, -mu)
		}
		ctmc, err := linalg.StationaryDense(gen.Build())
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
