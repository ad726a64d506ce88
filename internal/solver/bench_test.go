package solver_test

import (
	"context"
	"testing"
	"time"

	"socbuf/internal/arch"
	"socbuf/internal/experiments"
	"socbuf/internal/scenario"
	"socbuf/internal/solver"
)

// backendSweep runs the iters-iteration, 8-point chain6 budget sweep — the repo's standard
// sweep workload (BenchmarkSweepColdVsCached uses the same points) — with
// every point on one solver backend. Serial workers, no cache: the ratio
// between backends measures solver cost alone.
func backendSweep(tb testing.TB, method string, iters int) {
	sc, ok := scenario.Get("chain6")
	if !ok {
		tb.Fatal("scenario chain6 not registered")
	}
	newArch := func() *arch.Architecture {
		a, err := sc.Build()
		if err != nil {
			tb.Fatal(err)
		}
		return a
	}
	budgets := make([]int, 8)
	for i := range budgets {
		budgets[i] = sc.Budget + 8*i
	}
	opt := experiments.Options{
		Iterations: iters, Seeds: []int64{1}, Horizon: 300, WarmUp: 50,
		Workers: 1, Method: method,
	}
	res, err := experiments.BudgetSweepCtx(context.Background(), newArch, budgets, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Budgets) != len(budgets) {
		tb.Fatalf("sweep lost points: %d/%d", len(res.Budgets), len(budgets))
	}
}

// BenchmarkBackendSweep is the backend speed/accuracy measurement
// PERFORMANCE.md records: the same 8-point chain6 budget sweep under each
// solver backend, at 8 methodology iterations (near the
// paper's 10 — deep enough that hybrid's cycle cut fires). The acceptance
// target is analytic ≥ 10× faster than exact; hybrid lands in between (it
// runs exact iterations, just fewer of them).
func BenchmarkBackendSweep(b *testing.B) {
	for _, method := range solver.Methods() {
		b.Run(method, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				backendSweep(b, method, 8)
			}
		})
	}
}

// TestAnalyticBackendSpeed is the machine-enforced floor under the
// benchmark's ≥10× acceptance target: the analytic sweep must beat the
// exact sweep by at least 4× (wide headroom for CI noise and -race
// overhead; the measured ratio is far higher — see PERFORMANCE.md).
func TestAnalyticBackendSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race detector skews the timing ratio and blows the package time budget; the gate runs in the plain tier")
	}
	start := time.Now()
	backendSweep(t, solver.MethodExact, 3)
	exact := time.Since(start)

	start = time.Now()
	backendSweep(t, solver.MethodAnalytic, 3)
	analytic := time.Since(start)

	ratio := float64(exact) / float64(analytic)
	t.Logf("exact %v, analytic %v (%.1fx)", exact, analytic, ratio)
	if ratio < 4 {
		t.Errorf("analytic sweep only %.2fx faster than exact (acceptance target 10x, gate 4x)", ratio)
	}
}
