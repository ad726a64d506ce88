package socbuf_test

// One benchmark per table and figure of the paper, plus the sweep, solve
// cache and robust-backend benchmarks. Each paper benchmark regenerates the
// artefact through internal/experiments (the same code cmd/experiments
// prints with) and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation.

import (
	"context"
	"testing"
	"time"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/ctmdp"
	"socbuf/internal/experiments"
	"socbuf/internal/scenario"
	"socbuf/internal/solvecache"
	"socbuf/internal/uncertain"
)

// benchOpt keeps one benchmark iteration around a second.
var benchOpt = experiments.Options{Iterations: 3, Seeds: []int64{1, 2}, Horizon: 1200, WarmUp: 100}

// BenchmarkFigure3 regenerates Figure 3: per-processor loss under constant
// sizing, CTMDP sizing and the timeout policy at the scarce 160-unit budget.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure3(160, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if fig.PostTotal >= fig.PreTotal {
			b.Fatalf("shape broken: post %d !< pre %d", fig.PostTotal, fig.PreTotal)
		}
		b.ReportMetric(float64(fig.PostTotal)/float64(fig.PreTotal), "post/pre")
		b.ReportMetric(float64(fig.PostTotal)/float64(fig.TimeoutTotal), "post/timeout")
	}
}

// BenchmarkTable1 regenerates Table 1: the pre/post loss sweep over total
// buffer budgets 160/320/640.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table1([]int{160, 320, 640}, nil, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tbl.PostTotal[160]), "post160")
		b.ReportMetric(float64(tbl.PostTotal[640]), "post640")
	}
}

// BenchmarkSplitVsNonlinear regenerates the §2 demonstration: the coupled
// quadratic system of Figure 1 defeats KKT-Newton while the split system
// solves as one LP.
func BenchmarkSplitVsNonlinear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.SplitDemo()
		if err != nil {
			b.Fatal(err)
		}
		if d.KKTValid {
			b.Fatal("coupled system unexpectedly solvable")
		}
		if d.SplitSubsystems != 4 {
			b.Fatalf("split gave %d subsystems, want 4", d.SplitSubsystems)
		}
		b.ReportMetric(float64(d.SplitIters), "lp-pivots")
	}
}

// BenchmarkHeadline regenerates the §3 headline ratios (≈0.8 vs constant,
// ≈0.5 vs timeout in the paper).
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := experiments.Headline(160, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(h.CTMDPOverConstant, "vs-constant")
		b.ReportMetric(h.CTMDPOverTimeout, "vs-timeout")
	}
}

// BenchmarkSweep32 runs a 32-point Table 1 budget sweep serially and through
// the parallel sweep runner. On an 8-core machine the parallel variant is
// expected ≥ 3× faster; with GOMAXPROCS=1 the two are equivalent by
// construction (the determinism tests assert identical results).
func BenchmarkSweep32(b *testing.B) {
	budgets := make([]int, 32)
	for i := range budgets {
		budgets[i] = 100 + 10*i
	}
	sweepOpt := experiments.Options{Iterations: 1, Seeds: []int64{1}, Horizon: 300, WarmUp: 50}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} { // 0 = GOMAXPROCS
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := sweepOpt
				opt.Workers = mode.workers
				res, err := experiments.BudgetSweepCtx(context.Background(), arch.NetworkProcessor, budgets, opt)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Budgets) != 32 {
					b.Fatalf("sweep lost points: %d/32", len(res.Budgets))
				}
			}
		})
	}
}

// BenchmarkSweepColdVsCached is the solve-cache acceptance benchmark
// (PERFORMANCE.md records its measured numbers): a budget sweep of the full
// methodology over a generated scenario family (the chain6 topology), run
// cold — every point on its own private cache — and then with the planned,
// prewarmed, fleet-shared cache. Budget points share their entire
// boundary-lambda trajectory — capacities never enter the cap-free
// programs — so the cached variant cold-solves each sub-model stage once
// and answers the rest from the cache; the acceptance bar is ≥ 2× over
// cold. Both variants run serially (Workers: 1) so the ratio measures solve
// reuse across points, not scheduling.
func BenchmarkSweepColdVsCached(b *testing.B) {
	sc, ok := scenario.Get("chain6")
	if !ok {
		b.Fatal("scenario chain6 not registered")
	}
	newArch := func() *arch.Architecture {
		a, err := sc.Build()
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	budgets := make([]int, 8)
	for i := range budgets {
		budgets[i] = sc.Budget + 8*i
	}
	opt := experiments.Options{Iterations: 3, Seeds: []int64{1}, Horizon: 300, WarmUp: 50, Workers: 1}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.BudgetSweepCtx(context.Background(), newArch, budgets, opt)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Budgets) != len(budgets) {
				b.Fatalf("sweep lost points: %d/%d", len(res.Budgets), len(budgets))
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh cache per iteration: the measurement includes planning,
			// prewarming and every cold solve the cache still has to do.
			opt := opt
			opt.Cache = solvecache.New()
			res, _, err := experiments.CachedBudgetSweepCtx(context.Background(), newArch, budgets, opt)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Budgets) != len(budgets) {
				b.Fatalf("sweep lost points: %d/%d", len(res.Budgets), len(budgets))
			}
			s := opt.Cache.Stats()
			b.ReportMetric(float64(s.Hits+s.WarmStarts), "reused")
			b.ReportMetric(float64(s.Misses), "cold-solves")
		}
	})
}

// TestCachedSweepBeatsCold is the machine check of the solve-cache
// acceptance bar (BenchmarkSweepColdVsCached is the measurement; this test
// is the gate `go test` actually enforces): a cached generated-family sweep
// must be decisively faster than cold, whose points each reuse only within
// their own private cache. The measured ratio is 2.1–2.2× on a 2-core host,
// so gating at 1.3× leaves headroom for CI noise and -race overhead while
// still catching a cache that stopped reusing across points.
func TestCachedSweepBeatsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc, ok := scenario.Get("chain6")
	if !ok {
		t.Fatal("scenario chain6 not registered")
	}
	newArch := func() *arch.Architecture {
		a, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	budgets := []int{sc.Budget, sc.Budget + 8, sc.Budget + 16, sc.Budget + 24}
	opt := experiments.Options{Iterations: 2, Seeds: []int64{1}, Horizon: 200, WarmUp: 50, Workers: 1}

	start := time.Now()
	if _, err := experiments.BudgetSweepCtx(context.Background(), newArch, budgets, opt); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	opt.Cache = solvecache.New()
	start = time.Now()
	if _, _, err := experiments.CachedBudgetSweepCtx(context.Background(), newArch, budgets, opt); err != nil {
		t.Fatal(err)
	}
	cached := time.Since(start)

	s := opt.Cache.Stats()
	if reused := s.Hits + s.WarmStarts; reused == 0 {
		t.Fatalf("cache reused nothing: %+v", s)
	}
	if ratio := float64(cold) / float64(cached); ratio < 1.3 {
		t.Errorf("cached sweep only %.2fx faster than cold (cold %v, cached %v, stats %+v); acceptance bar is 2x, gate 1.3x",
			ratio, cold, cached, s)
	}
}

// BenchmarkJointLPSolve measures the raw joint occupation-measure LP on the
// network-processor subsystems — the methodology's inner kernel.
func BenchmarkJointLPSolve(b *testing.B) {
	a := arch.NetworkProcessor()
	a.InsertBridgeBuffers()
	alloc, err := arch.UniformAllocation(a, 160)
	if err != nil {
		b.Fatal(err)
	}
	models, err := core.BuildSubsystemModels(a, alloc, core.Config{Arch: a, Budget: 160})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := ctmdp.SolveJoint(models, ctmdp.JointConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sol.Iters), "pivots")
	}
}

// BenchmarkRobustSweep is the robust backend's acceptance benchmark
// (PERFORMANCE.md "Robust backend throughput" records its measured numbers;
// the nightly benchdiff gate covers it at the kernel tier's 25%): the same
// 8-point chain6 budget sweep as BenchmarkSweepColdVsCached, run under
// -method robust with 64 common-random-number perturbation samples per
// point. The headline metric is Monte-Carlo throughput in samples/sec —
// points × samples ÷ elapsed, counting each sample once even though the
// screen evaluates it against every candidate sizing — so a sampler or
// screening regression moves the number directly. The cached variant runs
// the sweep twice over one shared cache and reports the robust tier's
// traffic: the first pass misses all 8 structural keys, the second answers
// every point from the cache. Serial workers, as everywhere in this file,
// so the ratio measures the backend, not scheduling.
func BenchmarkRobustSweep(b *testing.B) {
	sc, ok := scenario.Get("chain6")
	if !ok {
		b.Fatal("scenario chain6 not registered")
	}
	newArch := func() *arch.Architecture {
		a, err := sc.Build()
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	budgets := make([]int, 8)
	for i := range budgets {
		budgets[i] = sc.Budget + 8*i
	}
	spec := &uncertain.Spec{RateSigma: 0.2, Samples: 64, Confidence: 0.95, Seed: 1}
	opt := experiments.Options{
		Iterations: 3, Seeds: []int64{1}, Horizon: 300, WarmUp: 50,
		Workers: 1, Method: "robust", Uncertainty: spec,
	}
	samplesPerSweep := float64(len(budgets) * spec.Samples)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.BudgetSweepCtx(context.Background(), newArch, budgets, opt)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Robust) != len(budgets) {
				b.Fatalf("robust reports lost: %d/%d", len(res.Robust), len(budgets))
			}
		}
		b.ReportMetric(samplesPerSweep*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh cache per iteration, two identical passes over it: the
			// second pass must answer every point from the robust tier.
			opt := opt
			opt.Cache = solvecache.New()
			for pass := 0; pass < 2; pass++ {
				res, err := experiments.BudgetSweepCtx(context.Background(), newArch, budgets, opt)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Robust) != len(budgets) {
					b.Fatalf("robust reports lost: %d/%d", len(res.Robust), len(budgets))
				}
			}
			s := opt.Cache.Stats()
			b.ReportMetric(float64(s.RobustHits), "robust-hits")
			b.ReportMetric(float64(s.RobustMisses), "robust-misses")
		}
		b.ReportMetric(2*samplesPerSweep*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	})
}
