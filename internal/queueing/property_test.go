package queueing

// Property tests over a randomized parameter grid. The pointwise oracle
// tests in mm1k_test.go pin known values; these pin the *shape* of the
// blocking surface that the sizing backends lean on:
//
//   - B(K) is non-increasing in K — the marginal-allocation greedy's gains
//     w·λ·(B(K) − B(K+1)) are only non-negative because of this;
//   - B is non-decreasing in ρ at fixed K — the robust backend's hedge
//     (upsized buffers survive rate upturns) is only sound because of this.
//
// The grid is seeded, so a failure reproduces exactly.

import (
	"math"
	"math/rand"
	"testing"
)

// grid draws a randomized (λ, μ) pair spanning light load to deep
// saturation: ρ ∈ (0.05, 5), rates within a few decades of 1.
func grid(rng *rand.Rand) (lambda, mu float64) {
	mu = math.Exp(rng.Float64()*4 - 2) // μ ∈ [e^-2, e^2]
	rho := 0.05 + rng.Float64()*4.95   // ρ ∈ [0.05, 5)
	return rho * mu, mu
}

// TestBlockingMonotoneInCapacity checks B(K+1) ≤ B(K) across the grid:
// adding a slot never makes a queue lose more.
func TestBlockingMonotoneInCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		lambda, mu := grid(rng)
		prev := math.Inf(1)
		for k := 1; k <= 40; k++ {
			q, err := NewMM1K(lambda, mu, k)
			if err != nil {
				t.Fatal(err)
			}
			b := q.Blocking()
			if b < 0 || b > 1 {
				t.Fatalf("λ=%v μ=%v K=%d: blocking %v outside [0,1]", lambda, mu, k, b)
			}
			if b > prev+1e-12 {
				t.Fatalf("λ=%v μ=%v: B(%d)=%v > B(%d)=%v — blocking rose with capacity",
					lambda, mu, k, b, k-1, prev)
			}
			prev = b
		}
	}
}

// TestBlockingMonotoneInLoad checks that at fixed K, blocking never falls
// as the offered load ρ rises.
func TestBlockingMonotoneInLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		mu := math.Exp(rng.Float64()*4 - 2)
		k := 1 + rng.Intn(30)
		prev := -1.0
		for step := 0; step < 50; step++ {
			rho := 0.05 + float64(step)*0.1 // ρ from 0.05 to 4.95
			q, err := NewMM1K(rho*mu, mu, k)
			if err != nil {
				t.Fatal(err)
			}
			b := q.Blocking()
			if b < prev-1e-12 {
				t.Fatalf("μ=%v K=%d: blocking fell from %v to %v as ρ rose to %v",
					mu, k, prev, b, rho)
			}
			prev = b
		}
	}
}

// TestStabilityAtUnitLoad pins the ρ → 1 behaviour of every closed-form
// summary the sizing backends consume: Distribution() guards the singular
// point with an |ρ−1| < 1e-12 uniform fallback, so Blocking(), LossRate()
// and MeanQueue() must all return the uniform-distribution values there —
// finite, in range, and exactly the 1/(K+1)-weighted sums — over a
// randomized (λ, μ, K) grid of in-window jitters. The incremental
// recurrence kernels must land on the same values without any guard: the
// recurrence is continuous through the singular point by construction.
func TestStabilityAtUnitLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		mu := math.Exp(rng.Float64()*4 - 2)
		k := 1 + rng.Intn(60)
		// Jitter inside the guard window: |ρ−1| < 1e-12.
		rho := 1 + (rng.Float64()*2-1)*0.99e-12
		lambda := rho * mu
		q, err := NewMM1K(lambda, mu, k)
		if err != nil {
			t.Fatal(err)
		}
		uniform := 1 / float64(k+1)
		if b := q.Blocking(); math.Abs(b-uniform) > 1e-15 {
			t.Fatalf("μ=%v K=%d ρ=%v: Blocking %v, want uniform %v", mu, k, rho, b, uniform)
		}
		if lr := q.LossRate(); math.Abs(lr-lambda*uniform) > 1e-12*lambda {
			t.Fatalf("μ=%v K=%d ρ=%v: LossRate %v, want %v", mu, k, rho, lr, lambda*uniform)
		}
		mq := q.MeanQueue()
		if math.IsNaN(mq) || math.Abs(mq-float64(k)/2) > 1e-9*float64(k) {
			t.Fatalf("μ=%v K=%d ρ=%v: MeanQueue %v, want K/2 = %v", mu, k, rho, mq, float64(k)/2)
		}
		// The recurrence kernels inherit the same behaviour with no special
		// case: continuity bounds the in-window drift by ~slope × 1e-12.
		if b := BlockingRecurrence(lambda, mu, k); math.Abs(b-uniform) > 1e-12 {
			t.Fatalf("μ=%v K=%d ρ=%v: BlockingRecurrence %v, want uniform %v", mu, k, rho, b, uniform)
		}
	}
}

// TestLossRateMarginalNonNegative checks the quantity the greedy actually
// ranks: λ·(B(K) − B(K+1)) ≥ 0 everywhere on the grid, and strictly
// positive wherever blocking is still material — a zero marginal with
// blocking left would stall the budget spend.
func TestLossRateMarginalNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		lambda, mu := grid(rng)
		k := 1 + rng.Intn(20)
		qk, err := NewMM1K(lambda, mu, k)
		if err != nil {
			t.Fatal(err)
		}
		qk1, err := NewMM1K(lambda, mu, k+1)
		if err != nil {
			t.Fatal(err)
		}
		marginal := lambda * (qk.Blocking() - qk1.Blocking())
		if marginal < 0 {
			t.Fatalf("λ=%v μ=%v K=%d: negative marginal %v", lambda, mu, k, marginal)
		}
		if qk.Blocking() > 1e-6 && marginal <= 0 {
			t.Fatalf("λ=%v μ=%v K=%d: blocking %v but zero marginal — greedy would stall",
				lambda, mu, k, qk.Blocking())
		}
	}
}
