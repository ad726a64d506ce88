package queueing

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// oracleTolerance returns the reference value and comparison tolerance for
// a blocking check at (λ, μ, K). In the well-conditioned regime the MM1K
// closed form is the 1e-12 oracle. Two regimes fall back to the same
// closed form evaluated in 200-bit big.Float arithmetic: a ring around
// ρ = 1, where the float64 form loses digits (1 − ρ^{K+1} cancels to
// ~(K+1)|ρ−1|, so its error is ~ulp(1)/|ρ−1| — already 1e-10 at
// |ρ−1| = 1e-6), and deep saturation with large K, where ρ^{K+1} overflows
// float64 outright (the fuzzer found ρ ≈ 202, K = 133 driving the float64
// oracle to 0 while the recurrence correctly sits near 1 − 1/ρ). big.Float
// exponents don't overflow at any reachable (ρ, K), which keeps the
// comparison honest at 1e-12 through both regimes.
func oracleTolerance(lambda, mu float64, k int) (want, tol float64) {
	rho := lambda / mu
	if math.Abs(rho-1) < 1e-4 || float64(k+1)*math.Log(rho) > 700 {
		return bigBlocking(lambda, mu, k), 1e-12
	}
	q := MM1K{Lambda: lambda, Mu: mu, K: k}
	return q.Blocking(), 1e-12
}

// bigBlocking evaluates ρ^K(1−ρ)/(1−ρ^{K+1}) in 200-bit precision, with
// the ρ = 1 removable singularity filled by its limit 1/(K+1).
func bigBlocking(lambda, mu float64, k int) float64 {
	const prec = 200
	rho := new(big.Float).SetPrec(prec).Quo(
		new(big.Float).SetPrec(prec).SetFloat64(lambda),
		new(big.Float).SetPrec(prec).SetFloat64(mu))
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	if rho.Cmp(one) == 0 {
		return 1 / float64(k+1)
	}
	pk := new(big.Float).SetPrec(prec).SetInt64(1)
	for i := 0; i < k; i++ {
		pk.Mul(pk, rho)
	}
	num := new(big.Float).SetPrec(prec).Sub(one, rho)
	num.Mul(num, pk)
	pk.Mul(pk, rho)
	den := new(big.Float).SetPrec(prec).Sub(one, pk)
	num.Quo(num, den)
	f, _ := num.Float64()
	return f
}

// TestBlockingRecurrenceAgrees pins the recurrence against the closed-form
// oracle to 1e-12 over a randomized (λ, μ, K) grid spanning light load to
// deep saturation, plus a deterministic sweep through the ρ = 1 singular
// point the closed form special-cases.
func TestBlockingRecurrenceAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(lambda, mu float64, k int) {
		t.Helper()
		got := BlockingRecurrence(lambda, mu, k)
		want, tol := oracleTolerance(lambda, mu, k)
		if math.Abs(got-want) > tol {
			t.Fatalf("λ=%v μ=%v K=%d: recurrence %v vs oracle %v (diff %g > %g)",
				lambda, mu, k, got, want, got-want, tol)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		lambda, mu := grid(rng)
		check(lambda, mu, 1+rng.Intn(64))
	}
	// The singular point and its numerical neighbourhood, every K.
	for k := 1; k <= 64; k++ {
		for _, eps := range []float64{0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6} {
			mu := 1.7
			check((1+eps)*mu, mu, k)
		}
	}
}

// TestBlockingStepAdvances pins the O(1) incremental step the greedy loops
// use: starting from B(1) and stepping K−1 times must land exactly on the
// recurrence's B(K) — they share every intermediate rounding.
func TestBlockingStepAdvances(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 500; trial++ {
		lambda, mu := grid(rng)
		rho := lambda / mu
		b := BlockingRecurrence(lambda, mu, 1)
		for k := 2; k <= 40; k++ {
			b = BlockingStep(rho, b)
			if want := BlockingRecurrence(lambda, mu, k); b != want {
				t.Fatalf("λ=%v μ=%v K=%d: stepped %v != recurrence %v", lambda, mu, k, b, want)
			}
		}
	}
}

// TestBlockingZeroAlloc is the AllocsPerRun gate on the incremental
// blocking kernel: the recurrence and the step must never touch the heap —
// they run inside every screen's table build and every greedy's gain
// update (the robust backend calls them millions of times per solve).
func TestBlockingZeroAlloc(t *testing.T) {
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		sink += BlockingRecurrence(3.2, 4.1, 24)
		sink += BlockingStep(0.78, sink)
	}); allocs != 0 {
		t.Fatalf("blocking kernels allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// FuzzBlockingRecurrence cross-checks the incremental kernel against the
// queueing.MM1K closed form over fuzzer-chosen (λ, μ, K), ρ near 1
// included — the oracle agreement the tentpole's acceptance pins at 1e-12
// (make fuzz-smoke runs this target for 10s on every push).
func FuzzBlockingRecurrence(f *testing.F) {
	f.Add(1.0, 2.0, 4)
	f.Add(5.0, 1.0, 12)
	f.Add(1.0, 1.0, 7)        // ρ = 1 exactly
	f.Add(1.0+1e-13, 1.0, 40) // inside the closed form's guard window
	f.Add(1.0-1e-9, 1.0, 64)  // inside the ill-conditioned ring
	f.Add(0.001, 1000.0, 1)   // vanishing load
	f.Add(19.9, 1.0, 32)      // deep saturation
	f.Fuzz(func(t *testing.T, lambda, mu float64, k int) {
		if !(lambda > 0) || !(mu > 0) || math.IsInf(lambda, 0) || math.IsInf(mu, 0) {
			t.Skip()
		}
		if k < 1 || k > 512 {
			t.Skip()
		}
		rho := lambda / mu
		if rho > 1e6 || rho < 1e-6 {
			// Beyond any load the sizing stack can construct (factors are
			// clamped to [0.05, 20]); the closed form itself under/overflows.
			t.Skip()
		}
		got := BlockingRecurrence(lambda, mu, k)
		if math.IsNaN(got) || got < 0 || got > 1 {
			t.Fatalf("λ=%v μ=%v K=%d: recurrence %v outside [0,1]", lambda, mu, k, got)
		}
		want, tol := oracleTolerance(lambda, mu, k)
		if math.Abs(got-want) > tol {
			t.Fatalf("λ=%v μ=%v K=%d: recurrence %v vs oracle %v (diff %g > %g)",
				lambda, mu, k, got, want, got-want, tol)
		}
	})
}
