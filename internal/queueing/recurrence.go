package queueing

// Allocation-free M/M/1/K kernels. The closed forms in mm1k.go build the
// whole stationary distribution on every call — fine for an oracle, fatal
// for the analytic screen, whose inner loops evaluate blocking millions of
// times per robust solve. The recurrences here compute the same quantities
// with a handful of multiply-adds, no heap traffic and no math.Pow, and the
// MM1K methods remain their correctness oracle (TestBlockingRecurrenceAgrees
// and FuzzBlockingRecurrence pin 1e-12 agreement across the parameter grid,
// ρ = 1 included).

// BlockingRecurrence returns the M/M/1/K blocking probability P(N = K) via
// the incremental recurrence
//
//	B(0) = 1,  B(k) = ρ·B(k−1) / (1 + ρ·B(k−1))
//
// which is algebraically identical to the closed form
// ρ^K(1−ρ)/(1−ρ^{K+1}) but needs no powers and no special case at the
// ρ = 1 singular point: at ρ exactly 1 the iteration yields 1/(K+1) — the
// uniform-distribution value MM1K.Blocking special-cases — and it stays
// numerically smooth through the |ρ−1| < 1e-12 window where the closed
// form's numerator and denominator both vanish. k < 1 returns 1 (a queue
// with no room loses every arrival), matching the NewMM1K(λ, μ, 0) failure
// convention the solver's blocking helper maps to 1. ρ·B is rounded by an
// explicit conversion before 1 + ρ·B, so no platform fuses the two (make
// fma-check).
func BlockingRecurrence(lambda, mu float64, k int) float64 {
	if k < 1 {
		return 1
	}
	rho := lambda / mu
	b := 1.0
	for i := 0; i < k; i++ {
		rb := float64(rho * b)
		b = rb / (1 + rb)
	}
	return b
}

// BlockingStep advances a blocking value one capacity unit:
// given B(k) it returns B(k+1). It is the O(1) kernel incremental greedy
// loops keep per buffer — the whole gain update after spending one unit is
// one call, instead of re-deriving two geometric sums.
func BlockingStep(rho, b float64) float64 {
	rb := float64(rho * b)
	return rb / (1 + rb)
}
