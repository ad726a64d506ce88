package engine

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/experiments"
	"socbuf/internal/scenario"
	"socbuf/internal/solvecache"
	"socbuf/internal/uncertain"
)

// fast keeps the real-methodology engine tests cheap enough for -race CI.
const (
	fastIters   = 1
	fastHorizon = 400
	fastWarmUp  = 50
)

var fastSeeds = []int64{1}

// TestEngineSolveMatchesDirectPath is the refactor's parity gate: for every
// preset scenario in the registry, the engine path must reproduce the
// pre-refactor direct path (scenario.CoreConfig → core.Run) exactly — the
// acceptance bar is 1e-8, equality is stronger.
func TestEngineSolveMatchesDirectPath(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := New(Config{})
	defer e.Close()
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			sc, _ := scenario.Get(name)
			cfg, err := sc.CoreConfig()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Iterations = fastIters
			cfg.Seeds = fastSeeds
			cfg.Horizon = fastHorizon
			cfg.WarmUp = fastWarmUp
			direct, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			got, err := e.Solve(context.Background(), SolveRequest{
				Scenario:   name,
				Iterations: fastIters,
				Seeds:      fastSeeds,
				Horizon:    fastHorizon,
				WarmUp:     fastWarmUp,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.UniformLoss != direct.BaselineLoss || got.SizedLoss != direct.Best.SimLoss {
				t.Fatalf("losses diverge: engine (%d, %d) vs direct (%d, %d)",
					got.UniformLoss, got.SizedLoss, direct.BaselineLoss, direct.Best.SimLoss)
			}
			if got.Improvement != direct.Improvement() {
				t.Fatalf("improvement diverges: %v vs %v", got.Improvement, direct.Improvement())
			}
			if got.BestIteration != direct.Best.Index || got.CapBinding != direct.Best.CapBinding {
				t.Fatalf("best-iteration metadata diverges: %+v", got)
			}
			if got.Subsystems != len(direct.Subsystems) || got.Scenario != name {
				t.Fatalf("shape metadata diverges: %+v", got)
			}
			for _, row := range got.Alloc {
				if row.Sized != direct.Best.Alloc[row.Buffer] || row.Uniform != direct.BaselineAlloc[row.Buffer] {
					t.Fatalf("allocation row diverges: %+v", row)
				}
			}
			if len(got.Alloc) != len(direct.Best.Alloc) {
				t.Fatalf("allocation rows = %d, want %d", len(got.Alloc), len(direct.Best.Alloc))
			}
		})
	}
}

// TestEngineBudgetSweepMatchesDirectPath pins the sweep path to the direct
// experiments call, including the cached/planned variant: a shared cache
// only saves work, so both must match exactly.
func TestEngineBudgetSweepMatchesDirectPath(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := experiments.Options{Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp, Workers: 2}
	budgets := []int{24, 30}
	direct, err := experiments.BudgetSweepCtx(context.Background(), arch.TwoBusAMBA, budgets, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, useCache := range []bool{false, true} {
		e := New(Config{})
		got, err := e.BudgetSweep(context.Background(), BudgetSweepRequest{
			Arch: "twobus", Budgets: budgets,
			Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp,
			Workers: 2, UseCache: useCache,
		})
		if err != nil {
			t.Fatalf("useCache=%v: %v", useCache, err)
		}
		if got.ArchName == "" || !reflect.DeepEqual(got.Sweep.Budgets, direct.Budgets) {
			t.Fatalf("useCache=%v: sweep shape diverges: %+v", useCache, got.Sweep)
		}
		if (got.Plan != nil) != useCache {
			t.Fatalf("useCache=%v: plan presence = %v", useCache, got.Plan != nil)
		}
		for _, b := range budgets {
			if got.Sweep.Pre[b] != direct.Pre[b] {
				t.Fatalf("useCache=%v: budget %d uniform loss %d, want %d", useCache, b, got.Sweep.Pre[b], direct.Pre[b])
			}
			if got.Sweep.Post[b] != direct.Post[b] {
				t.Fatalf("useCache=%v: budget %d sized loss %d, want %d", useCache, b, got.Sweep.Post[b], direct.Post[b])
			}
		}
		e.Close()
	}
}

// TestEngineSolveSameWithAndWithoutCache: every run takes the same solve
// path, through solvecache's nil receiver without UseCache, so sharing the
// engine's cache never changes an answer. netproc at budget 160 is where the two paths once
// differed (sized loss 1333 uncached vs 1536 cached).
func TestEngineSolveSameWithAndWithoutCache(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := New(Config{})
	defer e.Close()
	req := SolveRequest{Arch: "netproc", Budget: 160, Iterations: 3, Horizon: 600}
	plain, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.UseCache = true
	cached, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("cache changed the answer:\nwithout: %+v\nwith:    %+v", plain, cached)
	}
}

// TestEngineScenarioSweepMatchesDirectPath pins the scenario-sweep path —
// including the override plumbing — to the direct experiments call.
func TestEngineScenarioSweepMatchesDirectPath(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	names := []string{"twobus", "chain6"}
	scs, err := scenario.Resolve(names)
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.Options{Workers: 2}
	for i := range scs {
		scs[i].Budget = 48
		scs[i].Iterations = 2
		scs[i].Seeds = []int64{1}
		scs[i].Horizon = 600
	}
	direct, err := experiments.ScenarioSweepCtx(context.Background(), scs, opt)
	if err != nil {
		t.Fatal(err)
	}

	e := New(Config{})
	defer e.Close()
	got, err := e.ScenarioSweep(context.Background(), ScenarioSweepRequest{
		Scenarios: names, Budget: 48, Iterations: 2, Seeds: []int64{1}, Horizon: 600, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sweep.Points, direct.Points) {
		t.Fatalf("scenario sweep diverges:\nengine: %+v\ndirect: %+v", got.Sweep.Points, direct.Points)
	}
}

// TestEngineCoalescing is the deterministic coalescing gate: N concurrent
// identical solve requests share exactly one underlying methodology run.
// The leader is held at the test hook until every follower has attached, so
// the overlap is guaranteed, not probabilistic.
func TestEngineCoalescing(t *testing.T) {
	const followers = 7
	e := New(Config{})
	defer e.Close()
	release := make(chan struct{})
	e.testHookLeaderSolve = func() { <-release }

	req := SolveRequest{Scenario: "twobus", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp}
	type outcome struct {
		res *SolveResult
		err error
	}
	results := make(chan outcome, followers+1)
	run := func() {
		res, err := e.Solve(context.Background(), req)
		results <- outcome{res, err}
	}
	go run() // leader

	// Wait for the leader's flight to register, then attach the followers.
	waitFor(t, "flight registered", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.flights) == 1
	})
	for i := 0; i < followers; i++ {
		go run()
	}
	waitFor(t, "followers coalesced", func() bool {
		return e.Stats().Coalesced == followers
	})
	close(release)

	var first *SolveResult
	for i := 0; i < followers+1; i++ {
		out := <-results
		if out.err != nil {
			t.Fatal(out.err)
		}
		if first == nil {
			first = out.res
		} else if out.res != first {
			t.Fatalf("coalesced request got a different result instance: %p vs %p", out.res, first)
		}
	}
	s := e.Stats()
	if s.SolveRuns != 1 {
		t.Fatalf("solve runs = %d, want exactly 1", s.SolveRuns)
	}
	if s.Requests != followers+1 || s.Coalesced != followers {
		t.Fatalf("stats = %+v, want %d requests / %d coalesced", s, followers+1, followers)
	}
	// The flight is gone: a later identical request runs fresh.
	if _, err := e.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if s = e.Stats(); s.SolveRuns != 2 {
		t.Fatalf("post-flight request did not run fresh: %+v", s)
	}
}

// TestEngineFollowerCancellation: a coalesced follower whose context dies
// stops waiting without disturbing the leader.
func TestEngineFollowerCancellation(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	release := make(chan struct{})
	e.testHookLeaderSolve = func() { <-release }

	req := SolveRequest{Scenario: "twobus", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), req)
		leaderDone <- err
	}()
	waitFor(t, "flight registered", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.flights) == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := e.Solve(ctx, req)
		followerDone <- err
	}()
	waitFor(t, "follower coalesced", func() bool { return e.Stats().Coalesced == 1 })
	cancel()
	if err := <-followerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader disturbed by follower cancellation: %v", err)
	}
}

// TestEngineLeaderCancelDoesNotKillFollowers: the creator of a flight
// cancelling its own context must not fail the coalesced peers — the flight
// runs to completion for the remaining waiter.
func TestEngineLeaderCancelDoesNotKillFollowers(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	release := make(chan struct{})
	e.testHookLeaderSolve = func() { <-release }

	req := SolveRequest{Scenario: "twobus", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp}
	creatorCtx, creatorCancel := context.WithCancel(context.Background())
	creatorDone := make(chan error, 1)
	go func() {
		_, err := e.Solve(creatorCtx, req)
		creatorDone <- err
	}()
	waitFor(t, "flight registered", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.flights) == 1
	})

	followerDone := make(chan error, 1)
	var followerRes *SolveResult
	go func() {
		res, err := e.Solve(context.Background(), req)
		followerRes = res
		followerDone <- err
	}()
	waitFor(t, "follower coalesced", func() bool { return e.Stats().Coalesced == 1 })

	creatorCancel()
	if err := <-creatorDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled creator returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-followerDone; err != nil {
		t.Fatalf("follower failed after creator cancel: %v", err)
	}
	if followerRes == nil || followerRes.UniformLoss <= 0 {
		t.Fatalf("follower result out of shape: %+v", followerRes)
	}
	if s := e.Stats(); s.SolveRuns != 1 {
		t.Fatalf("solve runs = %d, want 1", s.SolveRuns)
	}
}

// TestEngineAllWaitersGoneCancelsFlight: when every waiter abandons a
// flight, the underlying run is cancelled rather than left computing a
// result nobody wants.
func TestEngineAllWaitersGoneCancelsFlight(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	entered := make(chan struct{})
	gate := make(chan struct{})
	e.testHookLeaderSolve = func() { close(entered); <-gate }

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Solve(ctx, SolveRequest{Scenario: "twobus", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp})
		done <- err
	}()
	<-entered
	cancel()
	// The solve is still held at the gate, so the sole waiter leaves first —
	// its departure must cancel the flight context before the solve starts.
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter returned %v", err)
	}
	close(gate)
	// The flight unwinds (cancelled or completed) and deregisters either way.
	waitFor(t, "flight deregistered", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.flights) == 0
	})
	// The engine stays fully usable (hook reset: it was one-shot).
	e.testHookLeaderSolve = nil
	if _, err := e.Solve(context.Background(), SolveRequest{Scenario: "twobus", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCoalescingKeyNormalised: requests that differ only in spellings
// of the same identity (implicit vs explicit default preset, worker bound)
// share one flight.
func TestEngineCoalescingKeyNormalised(t *testing.T) {
	base := SolveRequest{Budget: 160, Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp}
	explicit := base
	explicit.Arch = "netproc"
	explicit.Workers = 4
	if base.key() != explicit.key() {
		t.Fatal("implicit-netproc + worker-bound spelling produced a different coalescing key")
	}
	other := base
	other.Budget = 320
	if base.key() == other.key() {
		t.Fatal("different budgets coalesced")
	}
	scen := SolveRequest{Scenario: "twobus"}
	if scen.key() == base.key() {
		t.Fatal("scenario and preset requests coalesced")
	}
}

// TestEngineSimulatePassesZeroKnobsThrough: WarmUp 0 and Seed 0 are
// meaningful simulator inputs and must not be rewritten to defaults (the
// pre-refactor socsim honoured -warmup 0).
func TestEngineSimulatePassesZeroKnobsThrough(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	noWarm, err := e.Simulate(context.Background(), SimulateRequest{Arch: "twobus", Budget: 24, Horizon: 600, WarmUp: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := e.Simulate(context.Background(), SimulateRequest{Arch: "twobus", Budget: 24, Horizon: 600, WarmUp: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The warm-up window discards early events; rewriting 0 → 100 would make
	// these identical.
	if noWarm.Generated == warmed.Generated {
		t.Fatalf("warm-up 0 produced the same totals as warm-up 100 (%d): zero was rewritten", noWarm.Generated)
	}
	if _, err := e.Simulate(context.Background(), SimulateRequest{Arch: "twobus", Budget: 24, Horizon: 600, Seed: 0}); err != nil {
		t.Fatalf("seed 0 rejected: %v", err)
	}
}

// TestEngineJoinAfterLastWaiterLeft: a flight whose last waiter already
// left (context cancelled, deregistration pending) must not capture a new
// live request — the newcomer starts a fresh flight and gets a real result,
// not the dying flight's spurious cancellation.
func TestEngineJoinAfterLastWaiterLeft(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	gate := make(chan struct{})
	firstFlight := true
	var hookMu sync.Mutex
	e.testHookLeaderSolve = func() {
		hookMu.Lock()
		wasFirst := firstFlight
		firstFlight = false
		hookMu.Unlock()
		if wasFirst {
			<-gate // hold the first flight open past its waiter's departure
		}
	}

	req := SolveRequest{Scenario: "twobus", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp}
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := e.Solve(ctx, req)
		abandoned <- err
	}()
	waitFor(t, "first flight registered", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.flights) == 1
	})
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter returned %v", err)
	}

	// The first flight is now waiter-less and cancelled but still registered
	// (held at the gate). A fresh identical request must not inherit it.
	res, err := e.Solve(context.Background(), req)
	close(gate)
	if err != nil {
		t.Fatalf("request joined a dying flight: %v", err)
	}
	if res == nil || res.UniformLoss <= 0 {
		t.Fatalf("result out of shape: %+v", res)
	}
}

// TestEngineTierBound: a seeded random mix of exact solves, budget sweeps,
// analytic, robust and placement requests — over ten times more distinct
// cache keys than the bound — keeps every tier of an engine-owned cache,
// the result tier included, within MaxCacheEntries after every request,
// and every answer equals an unbounded engine's (eviction costs
// recomputes, never correctness). Analytic requests file only result-tier
// keys: their sizings are not cached.
func TestEngineTierBound(t *testing.T) {
	const bound = 2
	bounded := New(Config{Workers: 1, MaxCacheEntries: bound})
	defer bounded.Close()
	unbounded := New(Config{Workers: 1})
	defer unbounded.Close()

	ctx := context.Background()
	solve := func(method string, budget int) func(*Engine) (any, error) {
		return func(e *Engine) (any, error) {
			req := SolveRequest{Arch: "twobus", Budget: budget, Method: method,
				Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp, UseCache: true}
			if method == "robust" {
				req.Uncertainty = &uncertain.Spec{RateSigma: 0.2, Samples: 16, Confidence: 0.9, Seed: 3}
			}
			res, err := e.Solve(ctx, req)
			if err != nil {
				return nil, err
			}
			return [2]int64{res.UniformLoss, res.SizedLoss}, nil
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		budget := 16 + rng.Intn(40)
		var run func(*Engine) (any, error)
		switch rng.Intn(5) {
		case 0:
			run = solve("exact", budget)
		case 1:
			run = solve("analytic", budget)
		case 2:
			run = solve("robust", budget)
		case 3:
			run = func(e *Engine) (any, error) {
				res, err := e.BudgetSweep(ctx, BudgetSweepRequest{Arch: "twobus", Budgets: []int{budget, budget + 6},
					Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp, UseCache: true})
				if err != nil {
					return nil, err
				}
				return [2]map[int]int64{res.Sweep.Pre, res.Sweep.Post}, nil
			}
		case 4:
			run = func(e *Engine) (any, error) {
				req := quickPlacement()
				req.Budget, req.UseCache = budget, true
				res, err := e.Placement(ctx, req)
				if err != nil {
					return nil, err
				}
				return res.Result, nil
			}
		}
		want, err := run(unbounded)
		if err != nil {
			t.Fatalf("request %d (unbounded): %v", i, err)
		}
		got, err := run(bounded)
		if err != nil {
			t.Fatalf("request %d (bounded): %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("request %d: bounded answer differs from unbounded:\nwant %+v\ngot  %+v", i, want, got)
		}
		s := bounded.Stats().Cache
		for name, n := range map[string]int{
			"Entries": s.Entries, "RobustEntries": s.RobustEntries,
			"PlacementEntries": s.PlacementEntries, "ResultEntries": s.ResultEntries,
		} {
			if n > bound {
				t.Fatalf("request %d: %s = %d exceeds the bound %d", i, name, n, bound)
			}
		}
	}
	// The workload really overflowed every tier: the unbounded engine's
	// distinct keys per tier (each miss files a new one) each exceed the
	// bound, and total at least ten times it.
	s := unbounded.Stats().Cache
	keys := map[string]int64{
		"exact": s.Misses, "robust": s.RobustMisses,
		"placement": s.PlacementMisses, "result": int64(s.ResultEntries),
	}
	var total int64
	for name, n := range keys {
		if n <= bound {
			t.Errorf("tier %s saw only %d distinct keys, not past the bound %d", name, n, bound)
		}
		total += n
	}
	if total < 10*bound {
		t.Errorf("workload produced %d distinct keys, want at least %d", total, 10*bound)
	}

	// An adopted cache is not bounded by MaxCacheEntries.
	adopted := solvecache.New()
	e := New(Config{Cache: adopted, MaxCacheEntries: 1})
	defer e.Close()
	if _, err := e.Solve(ctx, SolveRequest{Scenario: "twobus", Iterations: 1, Seeds: fastSeeds,
		Horizon: fastHorizon, WarmUp: fastWarmUp, UseCache: true}); err != nil {
		t.Fatal(err)
	}
	if e.Cache() != adopted {
		t.Fatal("engine replaced its adopted cache")
	}
	if s := adopted.Stats(); s.Entries <= 1 {
		t.Fatalf("adopted cache holds %d entries; MaxCacheEntries=1 must not bound it", s.Entries)
	}
}

// robustSolve is a cached robust solve of twobus under the given
// simulation seeds. The robust key ignores those seeds, so requests that
// differ only in them share one robust sizing.
func robustSolve(seed int64) SolveRequest {
	return SolveRequest{Arch: "twobus", Budget: 24, Method: "robust",
		Uncertainty: &uncertain.Spec{RateSigma: 0.2, Samples: 16, Confidence: 0.9, Seed: 3},
		Iterations:  fastIters, Seeds: []int64{seed}, Horizon: fastHorizon, WarmUp: fastWarmUp, UseCache: true}
}

// TestEngineRemoteCacheSharing pins the Config.RemoteCache wiring: two
// engines sharing one store answer the second engine's robust solve from
// the first's sizing, and the answer is identical to a recompute by an
// engine without the store.
func TestEngineRemoteCacheSharing(t *testing.T) {
	shared := solvecache.NewMemStore()
	a := New(Config{RemoteCache: shared})
	defer a.Close()
	b := New(Config{RemoteCache: shared})
	defer b.Close()
	local := New(Config{})
	defer local.Close()

	ctx := context.Background()
	first, err := a.Solve(ctx, robustSolve(1))
	if err != nil {
		t.Fatal(err)
	}
	if shared.Len() == 0 {
		t.Fatal("first engine's solves did not populate the shared store")
	}
	got, err := b.Solve(ctx, robustSolve(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Solve(ctx, robustSolve(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("remote-fed result differs:\nwant %+v\ngot  %+v", want, got)
	}
	if !reflect.DeepEqual(first.Alloc, got.Alloc) || *first.Robust != *got.Robust {
		t.Errorf("the seed-2 sizing is not the seed-1 sizing it adopted:\nfirst %+v\ngot   %+v", first, got)
	}
	s := b.Stats()
	if s.Cache.RemoteHits == 0 {
		t.Errorf("second engine must adopt remote payloads: %+v", s.Cache)
	}
	if s.Cache.RobustMisses != 0 {
		t.Errorf("second engine re-sized %d robust problems a peer had already sized", s.Cache.RobustMisses)
	}
	if r := s.CacheRates["remote"]; r <= 0 {
		t.Errorf("remote rate %g must be positive; rates %v", r, s.CacheRates)
	}
}

// recordingStore is a shared store that records the tier tag of every
// envelope put into it and counts every consult.
type recordingStore struct {
	*solvecache.MemStore
	mu    sync.Mutex
	tiers map[string]int
	gets  int
}

func (r *recordingStore) Get(ctx context.Context, k solvecache.Key) ([]byte, bool) {
	r.mu.Lock()
	r.gets++
	r.mu.Unlock()
	return r.MemStore.Get(ctx, k)
}

func (r *recordingStore) Put(ctx context.Context, k solvecache.Key, b []byte) {
	var env struct {
		Tier string `json:"tier"`
	}
	_ = json.Unmarshal(b, &env)
	r.mu.Lock()
	r.tiers[env.Tier]++
	r.mu.Unlock()
	r.MemStore.Put(ctx, k, b)
}

// TestEngineRemoteCacheCarriesOnlyRobustAndPlacement: an engine attached to
// a remote store sends it neither exact sub-model solves nor analytic
// runs — a remote round trip costs more than either — so those requests
// leave the store empty and consult it never. Robust and placement
// requests, whose hits replace whole runs, are the only envelopes it
// receives.
func TestEngineRemoteCacheCarriesOnlyRobustAndPlacement(t *testing.T) {
	store := &recordingStore{MemStore: solvecache.NewMemStore(), tiers: map[string]int{}}
	e := New(Config{RemoteCache: store})
	defer e.Close()
	ctx := context.Background()

	for _, method := range []string{"exact", "analytic", "hybrid"} {
		if _, err := e.Solve(ctx, SolveRequest{Arch: "twobus", Budget: 24, Method: method, Iterations: fastIters,
			Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp, UseCache: true}); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
	if _, err := e.BudgetSweep(ctx, BudgetSweepRequest{Arch: "twobus", Budgets: []int{24, 30},
		Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp, UseCache: true}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats().Cache
	if store.Len() != 0 || s.RemoteHits+s.RemoteMisses != 0 || store.gets != 0 {
		t.Fatalf("exact and analytic work reached the store: %d payloads, %d consults, stats %+v",
			store.Len(), store.gets, s)
	}
	if s.Misses == 0 {
		t.Fatal("the exact requests solved no sub-model, so they tested nothing")
	}

	if _, err := e.Solve(ctx, robustSolve(1)); err != nil {
		t.Fatal(err)
	}
	req := quickPlacement()
	req.UseCache = true
	if _, err := e.Placement(ctx, req); err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"robust": 1, "placement": 1}; !reflect.DeepEqual(store.tiers, want) {
		t.Fatalf("store received envelopes %v, want %v", store.tiers, want)
	}
}

// poisonStore is a peer gone bad: it answers every key with one fixed
// payload and drops every write.
type poisonStore string

func (p poisonStore) Get(context.Context, solvecache.Key) ([]byte, bool) { return []byte(p), true }
func (poisonStore) Put(context.Context, solvecache.Key, []byte)          {}

// TestEngineRejectsPoisonedPayloads: a peer's payload that is not an answer
// to the request is a miss, so the request recomputes and answers exactly as
// an engine without a peer does — never with an error, and never with the
// peer's payload served as cached. A robust sizing must be one of the
// request's architecture and budget, and a placement payload must describe
// the request. Analytic runs never consult the peer, so its payload cannot
// reach them.
func TestEngineRejectsPoisonedPayloads(t *testing.T) {
	ctx := context.Background()
	sizing := func(method string) func(*Engine) (any, error) {
		req := SolveRequest{Arch: "twobus", Budget: 24, Method: method,
			Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp, UseCache: true}
		if method == "robust" {
			req.Uncertainty = &uncertain.Spec{RateSigma: 0.2, Samples: 16, Confidence: 0.9, Seed: 3}
		}
		return func(e *Engine) (any, error) { return e.Solve(ctx, req) }
	}
	place := func(e *Engine) (any, error) {
		req := quickPlacement()
		req.UseCache = true
		return e.Placement(ctx, req)
	}
	// A placement payload written behind by a peer's cache is deflated; this
	// one inflates to a result for another budget, so the cache adopts it
	// and only the engine's request check refuses it.
	peer, store := solvecache.New(), solvecache.NewMemStore()
	peer.SetRemote(store)
	peer.PutPlacement(solvecache.Key{}, []byte(`{"budget":1}`))
	otherBudget, ok := store.Get(ctx, solvecache.Key{})
	if !ok {
		t.Fatal("the peer wrote no placement payload behind")
	}
	for _, tc := range []struct {
		name, payload string
		run           func(*Engine) (any, error)
		adopted       int64 // remote payloads the cache adopts and the engine refuses
	}{
		{"analytic/empty", `{"tier":"analytic","data":{"Alloc":{},"LossRate":0}}`, sizing("analytic"), 0},
		{"analytic/negative", `{"tier":"analytic","data":{"Alloc":{"cpu@ahb1":-5}}}`, sizing("analytic"), 0},
		{"robust/empty", `{"tier":"robust","data":{"Alloc":{},"LossRate":0}}`, sizing("robust"), 0},
		{"robust/negative", `{"tier":"robust","data":{"Alloc":{"cpu@ahb1":-5}}}`, sizing("robust"), 0},
		{"placement/plain", `{"tier":"placement","data":{"budget":1}}`, place, 0},
		{"placement/budget", string(otherBudget), place, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := New(Config{})
			defer clean.Close()
			want, err := tc.run(clean)
			if err != nil {
				t.Fatal(err)
			}
			poisoned := New(Config{RemoteCache: poisonStore(tc.payload)})
			defer poisoned.Close()
			got, err := tc.run(poisoned)
			if err != nil {
				t.Fatalf("poisoned peer failed the request: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("poisoned peer changed the answer:\nwant %+v\ngot  %+v", want, got)
			}
			if s := poisoned.Stats().Cache; s.AnalyticHits+s.RobustHits != 0 || s.RemoteHits != tc.adopted {
				t.Fatalf("remote hits %d, want %d, and no poisoned sizing adopted: %+v", s.RemoteHits, tc.adopted, s)
			}
		})
	}
}

// TestEngineBusyFlightReclassifiesFollowers: coalesced followers of a
// flight that was rejected at admission count as Busy, not Coalesced — an
// overloaded server's stats must report the true rejection rate.
func TestEngineBusyFlightReclassifiesFollowers(t *testing.T) {
	e := New(Config{MaxInFlight: 1})
	defer e.Close()
	release := make(chan struct{})
	first := true
	var hookMu sync.Mutex
	e.testHookLeaderSolve = func() {
		hookMu.Lock()
		wasFirst := first
		first = false
		hookMu.Unlock()
		if wasFirst {
			<-release
		}
	}
	// Occupy the only slot.
	occupied := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), SolveRequest{Scenario: "twobus", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp})
		occupied <- err
	}()
	waitFor(t, "slot taken", func() bool { return e.Stats().InFlight == 1 })

	// Three identical requests under a different key: whatever mix of
	// flight-leading and coalescing they land in, all are rejected and all
	// must end up in Busy with Coalesced back at zero.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Solve(context.Background(), SolveRequest{Scenario: "figure1", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp})
			if !errors.Is(err, ErrBusy) {
				t.Errorf("over-limit request returned %v, want ErrBusy", err)
			}
		}()
	}
	wg.Wait()
	if s := e.Stats(); s.Busy != 3 || s.Coalesced != 0 {
		t.Fatalf("stats = %+v, want 3 busy / 0 coalesced", s)
	}
	close(release)
	if err := <-occupied; err != nil {
		t.Fatal(err)
	}
}

// TestEngineWorkerClamp: a per-request worker bound can lower but never
// exceed the operator's parallelism bound.
func TestEngineWorkerClamp(t *testing.T) {
	e := New(Config{Workers: 2})
	if got := e.requestWorkers(10000); got != 2 {
		t.Fatalf("clamp: %d, want 2", got)
	}
	if got := e.requestWorkers(1); got != 1 {
		t.Fatalf("lowering below the bound: %d, want 1", got)
	}
	if got := e.requestWorkers(0); got != 2 {
		t.Fatalf("default: %d, want 2", got)
	}
	e2 := New(Config{})
	if got := e2.requestWorkers(1 << 20); got > 1024 {
		t.Fatalf("unbounded engine accepted %d workers", got)
	}
}

// TestEngineStatsCountContract: Requests counts received requests; the
// *Runs counters count only validated executions.
func TestEngineStatsCountContract(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	ctx := context.Background()
	e.BudgetSweep(ctx, BudgetSweepRequest{Arch: "twobus"})                      // empty budgets: invalid
	e.ScenarioSweep(ctx, ScenarioSweepRequest{Scenarios: []string{"no-such"}})  // invalid
	e.Simulate(ctx, SimulateRequest{Arch: "twobus", Budget: 24, Policy: "bad"}) // invalid
	e.Solve(ctx, SolveRequest{Scenario: "no-such"})                             // invalid
	if s := e.Stats(); s.Requests != 4 || s.SweepRuns != 0 || s.SimRuns != 0 || s.SolveRuns != 0 {
		t.Fatalf("invalid requests leaked into run counters: %+v", s)
	}
}

// TestEngineMaxInFlight: requests beyond the bound fail fast with ErrBusy
// and are counted; a freed slot admits again.
func TestEngineMaxInFlight(t *testing.T) {
	e := New(Config{MaxInFlight: 1})
	defer e.Close()
	release := make(chan struct{})
	e.testHookLeaderSolve = func() { <-release }

	done := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), SolveRequest{Scenario: "twobus", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp})
		done <- err
	}()
	waitFor(t, "slot taken", func() bool { return e.Stats().InFlight == 1 })

	// A different request (different key — no coalescing) must be rejected.
	_, err := e.Solve(context.Background(), SolveRequest{Scenario: "figure1", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("over-limit request returned %v, want ErrBusy", err)
	}
	if s := e.Stats(); s.Busy != 1 {
		t.Fatalf("busy counter = %d, want 1", s.Busy)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Slot released: admission works again.
	if _, err := e.Solve(context.Background(), SolveRequest{Scenario: "figure1", Iterations: 1, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp}); err != nil {
		t.Fatalf("request after slot release failed: %v", err)
	}
}

// TestEngineShutdownCancelsInFlightSweep is the drain contract: Shutdown
// cancels an in-flight sweep (which returns promptly with the context error
// recorded per point) and blocks until the request has fully unwound — no
// goroutine leaks under -race.
func TestEngineShutdownCancelsInFlightSweep(t *testing.T) {
	e := New(Config{})
	// A long sweep: many points, serial workers, so shutdown strikes
	// mid-flight.
	budgets := make([]int, 50)
	for i := range budgets {
		budgets[i] = 24 + i
	}
	type outcome struct {
		res *BudgetSweepResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.BudgetSweep(context.Background(), BudgetSweepRequest{
			Arch: "twobus", Budgets: budgets,
			Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp,
			Workers: 1,
		})
		done <- outcome{res, err}
	}()
	waitFor(t, "sweep in flight", func() bool { return e.Stats().InFlight == 1 })

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := e.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	out := <-done
	if out.err == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v, want context.Canceled in the chain", out.err)
	}
	if out.res != nil && len(out.res.Sweep.Budgets)+len(out.res.Sweep.Failed) != len(budgets) {
		t.Fatalf("cancelled sweep lost points: %d + %d != %d",
			len(out.res.Sweep.Budgets), len(out.res.Sweep.Failed), len(budgets))
	}
	if s := e.Stats(); s.InFlight != 0 {
		t.Fatalf("in-flight after shutdown = %d", s.InFlight)
	}
	// Post-shutdown requests are rejected.
	if _, err := e.Solve(context.Background(), SolveRequest{Scenario: "twobus"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown solve returned %v, want ErrClosed", err)
	}
	if _, err := e.Simulate(context.Background(), SimulateRequest{Arch: "twobus", Budget: 24}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown simulate returned %v, want ErrClosed", err)
	}
}

// TestEngineSimulateMatchesDirect pins the simulator path against a direct
// sim run (the socsim refactor's parity check).
func TestEngineSimulateMatchesDirect(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	got, err := e.Simulate(context.Background(), SimulateRequest{
		Arch: "twobus", Budget: 24, Horizon: 600, WarmUp: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy != "constant" || got.Arch == "" {
		t.Fatalf("metadata: %+v", got)
	}
	if got.Generated <= 0 || got.Delivered <= 0 || got.Generated < got.Delivered {
		t.Fatalf("totals out of shape: %+v", got)
	}
	var perProcGen int64
	for _, p := range got.PerProc {
		perProcGen += p.Generated
	}
	if perProcGen != got.Generated {
		t.Fatalf("per-proc rows don't sum to the total: %d vs %d", perProcGen, got.Generated)
	}
	// Determinism: the same request reproduces bit-identical totals.
	again, err := e.Simulate(context.Background(), SimulateRequest{
		Arch: "twobus", Budget: 24, Horizon: 600, WarmUp: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("simulate not deterministic:\n%+v\n%+v", got, again)
	}
}

// TestEngineRequestValidation covers the request-normalisation error paths.
func TestEngineRequestValidation(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	ctx := context.Background()
	cases := []SolveRequest{
		{Scenario: "no-such-scenario"},
		{Arch: "no-such-preset", Budget: 24},
		{Scenario: "twobus", Arch: "twobus"},
		{Arch: "twobus"}, // missing budget
		{ArchJSON: []byte(`{"not":"an arch"`)},
	}
	for i, req := range cases {
		if _, err := e.Solve(ctx, req); err == nil {
			t.Fatalf("case %d accepted: %+v", i, req)
		}
	}
	if _, err := e.Simulate(ctx, SimulateRequest{Arch: "twobus", Budget: 24, Policy: "no-such-policy"}); err == nil {
		t.Fatal("bad sizing policy accepted")
	}
	if _, err := e.BudgetSweep(ctx, BudgetSweepRequest{Arch: "twobus"}); err == nil {
		t.Fatal("empty budget list accepted")
	}
	if _, err := e.ScenarioSweep(ctx, ScenarioSweepRequest{Scenarios: []string{"no-such"}}); err == nil {
		t.Fatal("unknown scenario list accepted")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineMixedMethodSweep: per-point method overrides thread end to end —
// the rows carry each point's backend, the per-backend counters split the
// points, and an unknown method anywhere in the request is an invalid
// request (the CLIs' exit-2 / HTTP-400 class), before any point runs.
func TestEngineMixedMethodSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := New(Config{})
	defer e.Close()
	got, err := e.BudgetSweep(context.Background(), BudgetSweepRequest{
		Arch: "twobus", Budgets: []int{24, 30, 36},
		Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon, WarmUp: fastWarmUp,
		Method: "analytic", Methods: []string{"", "", "exact"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := got.Sweep.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	wantMethods := []string{"analytic", "analytic", ""} // exact reports empty
	for i, row := range rows {
		if row.Method != wantMethods[i] {
			t.Fatalf("row %d method %q, want %q", i, row.Method, wantMethods[i])
		}
		if row.Error != "" || row.UniformLoss <= 0 {
			t.Fatalf("row %d out of shape: %+v", i, row)
		}
	}
	st := e.Stats()
	if st.Backends["analytic"].Solves != 2 || st.Backends["exact"].Solves != 1 {
		t.Fatalf("per-backend solve split wrong: %+v", st.Backends)
	}

	// Unknown method in either field fails validation up front.
	for _, req := range []BudgetSweepRequest{
		{Arch: "twobus", Budgets: []int{24}, Method: "bogus"},
		{Arch: "twobus", Budgets: []int{24}, Methods: []string{"bogus"}},
		{Arch: "twobus", Budgets: []int{24, 30}, Methods: []string{"exact"}}, // misaligned
	} {
		if _, err := e.BudgetSweep(context.Background(), req); !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("request %+v: error %v, want ErrInvalidRequest", req, err)
		}
	}
}

// TestEngineScenarioMethodOverride: the request-level method override
// reaches every scenario of a sweep, and scenario solves report their
// backend in the solve result.
func TestEngineScenarioMethodOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := New(Config{})
	defer e.Close()
	res, err := e.ScenarioSweep(context.Background(), ScenarioSweepRequest{
		Scenarios: []string{"twobus", "figure1"}, Budget: 48,
		Iterations: fastIters, Seeds: fastSeeds, Horizon: fastHorizon,
		Method: "analytic",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Sweep.Points))
	}
	for _, p := range res.Sweep.Points {
		if p.Method != "analytic" {
			t.Fatalf("point %s method %q, want analytic", p.Name, p.Method)
		}
	}
	solve, err := e.Solve(context.Background(), SolveRequest{
		Scenario: "twobus", Iterations: fastIters, Seeds: fastSeeds,
		Horizon: fastHorizon, WarmUp: fastWarmUp, Method: "hybrid",
	})
	if err != nil {
		t.Fatal(err)
	}
	if solve.Method != "hybrid" {
		t.Fatalf("solve method %q, want hybrid", solve.Method)
	}
	if _, err := e.Solve(context.Background(), SolveRequest{Scenario: "twobus", Method: "nope"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("unknown solve method: %v, want ErrInvalidRequest", err)
	}
	if _, err := e.Simulate(context.Background(), SimulateRequest{Arch: "twobus", Budget: 24, Method: "nope"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("unknown simulate method: %v, want ErrInvalidRequest", err)
	}
}

// TestRequestFingerprints pins the exported routing fingerprints: stable
// under normalisation, distinct across content and across request types.
func TestRequestFingerprints(t *testing.T) {
	s1 := SolveRequest{Budget: 160}
	s2 := SolveRequest{Arch: "netproc", Budget: 160, Workers: 8}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Error("default-preset and worker normalisation must coalesce solve fingerprints")
	}
	if s1.Fingerprint() == (SolveRequest{Budget: 161}).Fingerprint() {
		t.Error("different budgets must fingerprint differently")
	}
	if s1.Fingerprint() != s1.key() {
		t.Error("Fingerprint must be the coalescing key")
	}

	b1 := BudgetSweepRequest{Budgets: []int{10, 20}}
	b2 := BudgetSweepRequest{Arch: "netproc", Budgets: []int{10, 20}, Workers: 3}
	if b1.Fingerprint() != b2.Fingerprint() {
		t.Error("budget sweep normalisation failed")
	}
	c1 := ScenarioSweepRequest{Scenarios: []string{"twobus"}}
	c2 := ScenarioSweepRequest{Scenarios: []string{"twobus"}, Workers: 2}
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Error("scenario sweep normalisation failed")
	}
	p1 := PlacementRequest{Budget: 160}
	p2 := PlacementRequest{Arch: "netproc", Budget: 160, Workers: 5}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("placement normalisation failed")
	}

	// Domain separation: four types, same-ish content, four fingerprints.
	fps := map[string]bool{
		s1.Fingerprint(): true, b1.Fingerprint(): true,
		c1.Fingerprint(): true, p1.Fingerprint(): true,
	}
	if len(fps) != 4 {
		t.Errorf("request types must fingerprint in disjoint domains: %v", fps)
	}
}
