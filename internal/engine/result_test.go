package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"socbuf/internal/experiments"
	"socbuf/internal/scenario"
	"socbuf/internal/uncertain"
)

// quickSpec keeps robust solves cheap in the result-tier tests.
var quickSpec = &uncertain.Spec{RateSigma: 0.2, Samples: 16, Confidence: 0.9, Seed: 3}

// quickSolve is a cache-routed solve of a registry scenario under quick
// evaluation knobs.
func quickSolve(name, method string) SolveRequest {
	req := SolveRequest{Scenario: name, Method: method, Iterations: fastIters, Seeds: fastSeeds,
		Horizon: fastHorizon, WarmUp: fastWarmUp, UseCache: true}
	if method == "robust" {
		req.Uncertainty = quickSpec
	}
	return req
}

// TestEngineResultTierEquivalence: for every registry scenario and backend,
// a repeated cache-routed solve is a result-tier hit flagged cached, runs
// nothing, and otherwise equals the fresh engine's first answer field for
// field — the stored JSON round-trips every value exactly.
func TestEngineResultTierEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	for _, name := range scenario.Names() {
		for _, method := range []string{"exact", "analytic", "hybrid", "robust"} {
			e := New(Config{})
			req := quickSolve(name, method)
			want, err := e.Solve(ctx, req)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, method, err)
			}
			before := e.Stats()
			hit, err := e.Solve(ctx, req)
			if err != nil {
				t.Fatalf("%s/%s repeat: %v", name, method, err)
			}
			after := e.Stats()
			e.Close()
			if want.Cached || !hit.Cached {
				t.Fatalf("%s/%s: cached flags %v then %v, want false then true", name, method, want.Cached, hit.Cached)
			}
			if after.Cache.ResultHits != before.Cache.ResultHits+1 || after.SolveRuns != before.SolveRuns ||
				!reflect.DeepEqual(after.Backends, before.Backends) {
				t.Fatalf("%s/%s: repeat was not a pure result-tier hit:\nbefore %+v\nafter  %+v", name, method, before, after)
			}
			got := *hit
			got.Cached = false
			if !reflect.DeepEqual(&got, want) {
				t.Fatalf("%s/%s: hit differs from the run that stored it:\ngot  %+v\nwant %+v", name, method, &got, want)
			}
		}
	}
}

// TestEngineResultTierSweep: a repeated cache-routed budget sweep returns
// the identical sweep and plan counts, replays every row through OnRow in
// budget order, and runs nothing.
func TestEngineResultTierSweep(t *testing.T) {
	ctx := context.Background()
	e := New(Config{})
	defer e.Close()
	var mu sync.Mutex
	var streamed []experiments.BudgetRow
	req := BudgetSweepRequest{Arch: "twobus", Budgets: []int{30, 24, 36},
		Methods:    []string{"", "analytic", "robust"},
		Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp,
		Uncertainty: quickSpec, UseCache: true,
		OnRow: func(r experiments.BudgetRow) {
			mu.Lock()
			streamed = append(streamed, r)
			mu.Unlock()
		}}
	first, err := e.BudgetSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	streamed = nil
	hit, err := e.BudgetSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if first.Cached || !hit.Cached {
		t.Fatalf("cached flags %v then %v, want false then true", first.Cached, hit.Cached)
	}
	if hit.ArchName != first.ArchName || !reflect.DeepEqual(hit.Sweep, first.Sweep) {
		t.Fatalf("cached sweep differs:\ngot  %+v\nwant %+v", hit.Sweep, first.Sweep)
	}
	p, q := hit.Plan, first.Plan
	if p == nil || q == nil || !reflect.DeepEqual(p.Budgets, q.Budgets) || p.Models != q.Models ||
		p.UniqueStructural != q.UniqueStructural {
		t.Fatalf("cached plan %+v differs from %+v", p, q)
	}
	if !reflect.DeepEqual(streamed, first.Sweep.Rows()) {
		t.Fatalf("replayed rows %+v, want %+v in budget order", streamed, first.Sweep.Rows())
	}
	if after.SweepRuns != before.SweepRuns || after.Cache.ResultHits != before.Cache.ResultHits+1 ||
		!reflect.DeepEqual(after.Backends, before.Backends) {
		t.Fatalf("repeat was not a pure result-tier hit:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestEngineResultTierStoresOnlySuccess: failed, cancelled, invalid and
// partially failed requests leave the result tier empty (their repeats run
// again), uncached requests neither read nor write it, a hit needs no
// in-flight slot, and a closed engine serves no hits.
func TestEngineResultTierStoresOnlySuccess(t *testing.T) {
	ctx := context.Background()
	e := New(Config{MaxInFlight: 1})
	defer e.Close()
	empty := func(what string) {
		t.Helper()
		if s := e.Stats().Cache; s.ResultEntries != 0 || s.ResultHits != 0 {
			t.Fatalf("%s: result tier holds %d entries, %d hits", what, s.ResultEntries, s.ResultHits)
		}
	}
	for _, req := range []SolveRequest{
		{Arch: "twobus", Budget: 2, UseCache: true},                          // below the budget floor: a solve failure
		{Arch: "twobus", Budget: 24, Horizon: -5, UseCache: true},            // rejected by the core
		{Arch: "no-such", Budget: 24, UseCache: true},                        // rejected by the engine
		{Arch: "twobus", Budget: 24, Method: "bogus", UseCache: true},        // unknown backend
		{Arch: "twobus", Budget: 24, Horizon: 50, WarmUp: 10, Iterations: 1}, // succeeds, uncached
	} {
		for i := 0; i < 2; i++ {
			_, _ = e.Solve(ctx, req)
		}
		empty("solve")
	}
	partial := BudgetSweepRequest{Arch: "twobus", Budgets: []int{2, 24}, Iterations: fastIters,
		Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp, UseCache: true}
	for i := 0; i < 2; i++ {
		if res, err := e.BudgetSweep(ctx, partial); res == nil || err == nil {
			t.Fatalf("partial sweep: result %v, error %v; want both", res, err)
		}
	}
	uncached := partial
	uncached.Budgets, uncached.UseCache = []int{24}, false
	if _, err := e.BudgetSweep(ctx, uncached); err != nil {
		t.Fatal(err)
	}
	empty("sweep")
	if s := e.Stats(); s.SweepRuns != 3 || s.Cache.ResultMisses != 2*4+2 {
		t.Fatalf("sweep runs %d, result misses %d; want 3 and %d", s.SweepRuns, s.Cache.ResultMisses, 2*4+2)
	}

	// A solve whose every waiter left is cancelled, and not stored.
	release := make(chan struct{})
	e.testHookLeaderSolve = func() { <-release }
	cancelled := quickSolve("twobus", "analytic")
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := e.Solve(cctx, cancelled)
		done <- err
	}()
	waitFor(t, "flight registered", func() bool { return e.Stats().InFlight == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v", err)
	}
	close(release)
	waitFor(t, "cancelled flight gone", func() bool { return e.Stats().InFlight == 0 })
	empty("cancelled solve")

	// Store one answer, then occupy the only in-flight slot: the hit needs
	// none.
	e.testHookLeaderSolve = nil
	stored := quickSolve("twobus", "analytic")
	stored.Seeds = []int64{2}
	if _, err := e.Solve(ctx, stored); err != nil {
		t.Fatal(err)
	}
	release = make(chan struct{})
	e.testHookLeaderSolve = func() { <-release }
	go func() {
		_, err := e.Solve(ctx, quickSolve("figure1", "analytic"))
		done <- err
	}()
	waitFor(t, "slot taken", func() bool { return e.Stats().InFlight == 1 })
	if res, err := e.Solve(ctx, stored); err != nil || !res.Cached {
		t.Fatalf("hit under a full in-flight bound: %+v, %v", res, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	_ = e.Close()
	if _, err := e.Solve(ctx, stored); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine answered a stored request: %v", err)
	}
}

// TestEngineResultTierConcurrentEviction drives concurrent hits, misses and
// evictions at a result-tier bound of 1: two requests alternate across
// goroutines, so each keeps evicting the other's answer while readers hit
// it. Every answer must equal the uncached one. Run under -race.
func TestEngineResultTierConcurrentEviction(t *testing.T) {
	ctx := context.Background()
	ref := New(Config{})
	defer ref.Close()
	reqs := []SolveRequest{quickSolve("twobus", "analytic"), quickSolve("figure1", "analytic")}
	var want []*SolveResult
	for _, req := range reqs {
		req.UseCache = false
		res, err := ref.Solve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	e := New(Config{MaxCacheEntries: 1})
	defer e.Close()
	// Store the first answer up front, so the goroutines that start on it
	// hit while the others' runs are still going.
	if _, err := e.Solve(ctx, reqs[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i/3) % 2
				res, err := e.Solve(ctx, reqs[k])
				if err != nil {
					t.Error(err)
					return
				}
				got := *res
				got.Cached = false
				if !reflect.DeepEqual(&got, want[k]) {
					t.Errorf("request %d: answer differs from the uncached one", k)
				}
			}
		}()
	}
	wg.Wait()
	s := e.Stats().Cache
	if s.ResultEntries > 1 || s.ResultHits == 0 || s.ResultMisses < 2 {
		t.Fatalf("result tier %d entries, %d hits, %d misses; want ≤1, >0, ≥2", s.ResultEntries, s.ResultHits, s.ResultMisses)
	}
}
