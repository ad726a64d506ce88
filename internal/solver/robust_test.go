package solver_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"socbuf/internal/solvecache"
	"socbuf/internal/solver"
	"socbuf/internal/uncertain"
)

// TestRobustBackendShape checks the chance-constrained backend's contract
// under the default (nil) uncertainty spec: a valid budget-bounded
// allocation, one simulation-evaluated iteration, no CTMDP solution, and a
// populated report whose fields are internally consistent.
func TestRobustBackendShape(t *testing.T) {
	cfg := quickCfg(t, "chain6")
	cfg.Method = solver.MethodRobust
	res, err := solver.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 1 {
		t.Fatalf("robust ran %d iterations, want 1", len(res.Iterations))
	}
	if res.Best.Solution != nil || res.FinalSolution != nil {
		t.Fatal("robust backend produced a CTMDP solution")
	}
	if err := res.Best.Alloc.Validate(res.Arch, cfg.Budget); err != nil {
		t.Fatal(err)
	}
	rep := res.Robust
	if rep == nil {
		t.Fatal("robust run carried no chance-constraint report")
	}
	if rep.Samples != uncertain.DefaultSamples || rep.Confidence != uncertain.DefaultConfidence {
		t.Fatalf("report did not inherit spec defaults: %+v", rep)
	}
	if rep.Yield < 0 || rep.Yield > 1 || rep.YieldLow < 0 || rep.YieldLow > rep.Yield {
		t.Fatalf("yield pair out of order: yield=%v low=%v", rep.Yield, rep.YieldLow)
	}
	if rep.LossTarget <= 0 {
		t.Fatalf("loss target %v, want positive on chain6", rep.LossTarget)
	}
	if rep.BudgetUsed <= 0 || rep.BudgetUsed > cfg.Budget {
		t.Fatalf("budget used %d outside (0, %d]", rep.BudgetUsed, cfg.Budget)
	}
	if rep.Candidates <= 0 {
		t.Fatal("no candidates were scored")
	}
	used := 0
	for _, n := range res.Best.Alloc {
		used += n
	}
	if used != rep.BudgetUsed {
		t.Fatalf("allocation spends %d slots but report claims %d", used, rep.BudgetUsed)
	}
}

// TestRobustCacheRoundTrip pins the robust cache tier: the second identical
// run is answered from the cache (one hit, one entry, zero extra misses)
// and returns a bit-identical sizing and report, while the exact tier —
// whose key space the backend tag keeps disjoint — stays untouched.
func TestRobustCacheRoundTrip(t *testing.T) {
	cache := solvecache.New()
	run := func() (*uncertain.Report, map[string]int) {
		cfg := quickCfg(t, "twobus")
		cfg.Method = solver.MethodRobust
		cfg.Uncertainty = &uncertain.Spec{RateSigma: 0.2, Samples: 16, Confidence: 0.9, Seed: 3}
		cfg.Cache = cache
		res, err := solver.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Robust, res.Best.Alloc
	}
	rep1, alloc1 := run()
	rep2, alloc2 := run()
	if *rep1 != *rep2 || !reflect.DeepEqual(alloc1, alloc2) {
		t.Fatalf("cached run diverged:\nfirst:  %+v %v\nsecond: %+v %v", *rep1, alloc1, *rep2, alloc2)
	}
	st := cache.Stats()
	if st.RobustHits != 1 || st.RobustMisses != 1 || st.RobustEntries != 1 {
		t.Fatalf("robust tier stats hits=%d misses=%d entries=%d, want 1/1/1",
			st.RobustHits, st.RobustMisses, st.RobustEntries)
	}
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("robust run leaked into the exact tier: %+v", st)
	}
}

// TestRobustSpecKeyedCache pins cache-key sensitivity: changing the
// uncertainty spec (here the sampler seed) must miss the tier, not serve
// the other spec's sizing.
func TestRobustSpecKeyedCache(t *testing.T) {
	cache := solvecache.New()
	for _, seed := range []int64{3, 4} {
		cfg := quickCfg(t, "twobus")
		cfg.Method = solver.MethodRobust
		cfg.Uncertainty = &uncertain.Spec{RateSigma: 0.2, Samples: 16, Confidence: 0.9, Seed: seed}
		cfg.Cache = cache
		if _, err := solver.Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.RobustHits != 0 || st.RobustMisses != 2 || st.RobustEntries != 2 {
		t.Fatalf("distinct specs shared a cache slot: hits=%d misses=%d entries=%d",
			st.RobustHits, st.RobustMisses, st.RobustEntries)
	}
}

// TestRobustRejectsBadSpec pins validation surfacing: an out-of-range
// uncertainty spec fails config normalisation before any work happens.
func TestRobustRejectsBadSpec(t *testing.T) {
	cfg := quickCfg(t, "twobus")
	cfg.Method = solver.MethodRobust
	cfg.Uncertainty = &uncertain.Spec{RateSigma: -1}
	_, err := solver.Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("negative rate sigma accepted")
	}
	if !strings.Contains(err.Error(), "rate sigma") {
		t.Fatalf("error %q does not name the bad field", err)
	}
}
