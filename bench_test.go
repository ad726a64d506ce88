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
	"math"
	"runtime"
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
		b.ReportMetric(float64(d.SplitIters), "pi-evals")
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
// cold — every point without a cache — and then with the planned,
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
			b.ReportMetric(float64(s.Hits), "reused")
			b.ReportMetric(float64(s.Misses), "cold-solves")
		}
	})
}

// TestCachedSweepBeatsCold is the machine check of the solve-cache
// acceptance bar (BenchmarkSweepColdVsCached is the measurement; this test
// is the gate `go test` actually enforces). Four budget points of a
// generated-family sweep run twice, serially: cold, each point on a fresh
// cache of its own, and cached, all points sharing one planned, prewarmed
// cache.
//
// The primary gate counts work, so host load cannot fail it: the shared
// cache must run at most half the cold sub-model solves the fresh caches
// run (36 against 144, with 114 hits; each fresh cache answers none of its
// own lookups). The timing gate keeps the 1.3× bar on the fastest of
// three runs per side, alternating which side runs first. Runs are timed
// in the process's CPU time, each after a garbage collection: the sweeps
// run serially, so CPU time is their work, and unlike wall time it does not
// grow while other processes hold the CPU. The ratio reads about 1.45×, so
// wall time on a shared 2-core host failed the bar in about one run in
// ten.
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

	// cold runs each point on a fresh cache of its own, which answers none
	// of its lookups, so it does the work of a run without a cache and
	// counts it; cached shares one cache.
	var coldStats, cachedStats solvecache.Stats
	coldBest, cachedBest := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	cold := func() {
		coldStats = solvecache.Stats{}
		runtime.GC()
		start := cpuTime(t)
		for _, b := range budgets {
			o := opt
			o.Cache = solvecache.New()
			if _, err := experiments.BudgetSweepCtx(context.Background(), newArch, []int{b}, o); err != nil {
				t.Fatal(err)
			}
			coldStats.Add(o.Cache.Stats())
		}
		coldBest = min(coldBest, cpuTime(t)-start)
	}
	cached := func() {
		o := opt
		o.Cache = solvecache.New()
		runtime.GC()
		start := cpuTime(t)
		if _, _, err := experiments.CachedBudgetSweepCtx(context.Background(), newArch, budgets, o); err != nil {
			t.Fatal(err)
		}
		cachedBest = min(cachedBest, cpuTime(t)-start)
		cachedStats = o.Cache.Stats()
	}
	for round := 0; round < 3; round++ {
		if round%2 == 0 {
			cold()
			cached()
		} else {
			cached()
			cold()
		}
	}

	if cachedStats.Hits == 0 {
		t.Fatalf("cache reused nothing: %+v", cachedStats)
	}
	if 2*cachedStats.Misses > coldStats.Misses {
		t.Errorf("shared cache ran %d cold solves (%d hits), more than half the %d of fresh caches (%d hits)",
			cachedStats.Misses, cachedStats.Hits, coldStats.Misses, coldStats.Hits)
	}
	if ratio := float64(coldBest) / float64(cachedBest); ratio < 1.3 {
		t.Errorf("cached sweep only %.2fx faster than cold (fastest of three, CPU time: cold %v, cached %v); gate 1.3x",
			ratio, coldBest, cachedBest)
	}
	t.Logf("CPU time: cold %v (%d cold solves, %d hits), cached %v (%d cold solves, %d hits)",
		coldBest, coldStats.Misses, coldStats.Hits, cachedBest, cachedStats.Misses, cachedStats.Hits)
}

// BenchmarkJointLPSolve measures the raw cap-free solve of the
// network-processor subsystems' occupation-measure programs — policy
// iteration bus by bus, the methodology's inner kernel. The evaluation
// count is deterministic, so a regression shows in it without timing
// noise.
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
		b.ReportMetric(float64(sol.Iters), "evals+steps")
	}
}

// BenchmarkCappedSolve measures the capped program every exact methodology
// step solves, on programs the size socbufbench's exact-sweep serves: the
// network processor at budget 160, and a generated 8-bus one-processor
// chain at 10 units per bus. Each is capped at 0.92 × its cap-free
// occupancy, core's first rung. The work count — policy evaluations of
// the cap-free starts plus the price sweep's steps — is deterministic, so a
// regression shows in it without timing noise.
func BenchmarkCappedSolve(b *testing.B) {
	chain8 := func() *arch.Architecture {
		a, err := scenario.Topology{Kind: scenario.KindChain, Buses: 8, FanOut: 1, Skew: 4, Seed: 1}.Build()
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	for _, c := range []struct {
		name    string
		newArch func() *arch.Architecture
		budget  int
	}{
		{"netproc", arch.NetworkProcessor, 160},
		{"chain8", chain8, 80},
	} {
		b.Run(c.name, func(b *testing.B) {
			a := c.newArch()
			a.InsertBridgeBuffers()
			alloc, err := arch.UniformAllocation(a, c.budget)
			if err != nil {
				b.Fatal(err)
			}
			models, err := core.BuildSubsystemModels(a, alloc, core.Config{Arch: a, Budget: c.budget})
			if err != nil {
				b.Fatal(err)
			}
			free, err := solvecache.New().SolveJoint(models, ctmdp.JointConfig{})
			if err != nil {
				b.Fatal(err)
			}
			cfg := ctmdp.JointConfig{OccupancyCaps: []float64{0.92 * free.OccupancyUsed}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := ctmdp.SolveJoint(models, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sol.Iters), "evals+steps")
			}
		})
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
// traffic: the first pass misses all 8 robust keys, the second answers
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
