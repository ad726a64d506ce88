package placement

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/scenario"
	"socbuf/internal/solver"
)

// quickCfg are the evaluation knobs every end-to-end placement test uses —
// the scenario-smoke settings, small enough for CI.
func quickCfg(t *testing.T, name string) Config {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	a, err := sc.Build()
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return Config{
		Arch:       a,
		Budget:     sc.Budget,
		Iterations: 2,
		Seeds:      []int64{1},
		Horizon:    400,
		WarmUp:     50,
	}
}

// TestPlaceEndToEnd runs every registered backend over chain6 and checks
// the shape of the result: non-empty frontier, a chosen placement, refined
// evaluations only where the method calls for them.
func TestPlaceEndToEnd(t *testing.T) {
	for _, method := range solver.Methods() {
		cfg := quickCfg(t, "chain6")
		cfg.Method = method
		cfg.RefineTop = 2
		res, err := Place(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(res.Frontier) == 0 {
			t.Fatalf("%s: empty frontier", method)
		}
		if res.Method != method {
			t.Errorf("%s: result method %q", method, res.Method)
		}
		if res.Candidates != 5 || res.Bypassable != 5 {
			t.Errorf("%s: candidates %d bypassable %d, want 5/5 on chain6", method, res.Candidates, res.Bypassable)
		}
		if res.Enumerated != 1024 { // (3 types + bypass)^5
			t.Errorf("%s: enumerated %d, want 1024", method, res.Enumerated)
		}
		if res.Pruned == 0 {
			t.Errorf("%s: DP pruned nothing", method)
		}
		refined := 0
		for _, pt := range res.Frontier {
			if pt.Refined {
				refined++
				if pt.Method != method {
					t.Errorf("%s: refined point carries method %q", method, pt.Method)
				}
			}
			if len(pt.Decisions) != res.Candidates {
				t.Errorf("%s: point with %d decisions", method, len(pt.Decisions))
			}
		}
		if method == solver.MethodAnalytic && refined != 0 {
			t.Errorf("analytic: %d refined points, want 0", refined)
		}
		if method != solver.MethodAnalytic && refined == 0 {
			t.Errorf("%s: no refined points", method)
		}
		for _, pt := range res.Frontier {
			if pt.Loss < res.Chosen.Loss {
				t.Errorf("%s: chosen loss %d beaten by frontier point %d", method, res.Chosen.Loss, pt.Loss)
			}
		}
	}
}

// TestPlaceDeterministicAcrossWorkers: identical results for any worker
// count — the repo-wide contract, extended to placement.
func TestPlaceDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		cfg := quickCfg(t, "star6")
		cfg.Method = solver.MethodAnalytic
		cfg.Workers = workers
		res, err := Place(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial, pooled := run(1), run(4)
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatalf("results differ between 1 and 4 workers:\n%+v\nvs\n%+v", serial, pooled)
	}
}

// TestPlaceObserverAndOnEval: the streaming hook sees every point's
// evaluation, and the backend observer attributes every solver run: one
// per distinct bypass set among the screened points, plus one for the
// refined point.
func TestPlaceObserverAndOnEval(t *testing.T) {
	cfg := quickCfg(t, "chain6")
	cfg.Method = solver.MethodExact
	cfg.RefineTop = 1
	var evals, runs int
	cfg.OnEval = func(Point) { evals++ }
	cfg.RunObserver = func(method string, wall time.Duration) { runs++ }
	cfg.Workers = 1 // hooks fire from worker goroutines; serialise for counting
	res, err := Place(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(res.Frontier) + 1; evals != want { // every screen + one refinement
		t.Errorf("OnEval fired %d times, want %d", evals, want)
	}
	if want := bypassSets(res.Frontier, false) + 1; runs != want {
		t.Errorf("RunObserver fired %d times, want %d", runs, want)
	}
}

// bypassSets counts the distinct bypass sets among pts (only the refined
// ones when refined is set): the solver runs a pass over them needs.
func bypassSets(pts []Point, refined bool) int {
	sets := map[string]bool{}
	for _, pt := range pts {
		if refined && !pt.Refined {
			continue
		}
		var sb strings.Builder
		for _, d := range pt.Decisions {
			if d.Type == "" {
				sb.WriteString(d.Bridge + ",")
			}
		}
		sets[sb.String()] = true
	}
	return len(sets)
}

// referencePlace is Place with one solver run per point: p.evaluate once
// per frontier survivor, then once per refined point. Place groups the
// points by bypass set instead, and must return the same Result.
func referencePlace(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg = cfg.WithDefaults()
	p, err := newProblem(cfg.Arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	front, st := runDP(t, p)
	pts := make([]Point, len(front))
	for i, s := range front {
		loss, imp, err := p.evaluate(context.Background(), cfg, solver.MethodAnalytic, s.dec)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = Point{Decisions: p.decisionsOf(s.dec), Cost: s.cost, Buffers: p.buffersOf(s.dec), Bypassed: s.bypassed,
			ScreenJ: s.j, ScreenLoss: loss, Loss: loss, Improvement: imp, Method: solver.MethodAnalytic}
	}
	method := solver.Canonical(cfg.Method)
	if method != solver.MethodAnalytic {
		order := make([]int, len(pts))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool {
			a, b := pts[order[x]], pts[order[y]]
			if a.ScreenLoss != b.ScreenLoss {
				return a.ScreenLoss < b.ScreenLoss
			}
			if a.Cost != b.Cost {
				return a.Cost < b.Cost
			}
			return decLess(front[order[x]].dec, front[order[y]].dec)
		})
		for _, i := range order[:min(cfg.RefineTop, len(order))] {
			loss, imp, err := p.evaluate(context.Background(), cfg, cfg.Method, front[i].dec)
			if err != nil {
				t.Fatal(err)
			}
			pts[i].Loss, pts[i].Improvement, pts[i].Method, pts[i].Refined = loss, imp, method, true
		}
	}
	res := &Result{Arch: cfg.Arch.Name, Method: method, Candidates: len(p.bridges), Enumerated: p.enumerated,
		Partials: st.partials, Pruned: st.pruned, Infeasible: st.infeasible, Frontier: pts}
	for _, c := range p.cut {
		if c {
			res.Bypassable++
		}
	}
	best := 0
	for i, pt := range pts {
		if pt.Loss < pts[best].Loss || (pt.Loss == pts[best].Loss && pt.Cost < pts[best].Cost) {
			best = i
		}
	}
	res.Chosen = pts[best]
	return res
}

// TestPlaceEvaluatesEachBypassSetOnce: a buffer type changes a placement's
// cost and screened latency but not its contracted architecture, so Place
// runs the solver once per distinct bypass set in each pass and still
// returns exactly referencePlace's Result. It covers the four registry
// topologies under every placement backend, and the placement workload's
// first four 14-bus topologies at the workload's knobs.
func TestPlaceEvaluatesEachBypassSetOnce(t *testing.T) {
	type tc struct {
		name string
		cfg  Config
	}
	var cases []tc
	for _, sc := range []string{"chain6", "star6", "tree7", "mesh9"} {
		for _, m := range []string{solver.MethodAnalytic, solver.MethodExact, solver.MethodHybrid} {
			cfg := quickCfg(t, sc)
			cfg.Method, cfg.RefineTop = m, 3
			cases = append(cases, tc{sc + "/" + m, cfg})
		}
	}
	for i := 16; i < 20; i++ {
		a := placementWorkloadTopology(t, i)
		cases = append(cases, tc{fmt.Sprintf("workload%d/analytic", i), Config{
			Arch: a, Budget: 3 * (len(a.Processors) + 2*len(a.Bridges)), Method: solver.MethodAnalytic,
			RefineTop: 1, Seeds: []int64{1}, Horizon: 100, WarmUp: 20,
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := referencePlace(t, c.cfg)
			cfg := c.cfg
			cfg.Workers = 2
			var mu sync.Mutex
			evals, runs := 0, 0
			cfg.OnEval = func(Point) { mu.Lock(); evals++; mu.Unlock() }
			cfg.RunObserver = func(string, time.Duration) { mu.Lock(); runs++; mu.Unlock() }
			got, err := Place(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("grouped Place differs from one run per point:\n got %+v\nwant %+v", got, want)
			}
			refined := 0
			for _, pt := range got.Frontier {
				if pt.Refined {
					refined++
				}
			}
			if want := len(got.Frontier) + refined; evals != want {
				t.Errorf("OnEval fired %d times, want %d (%d points, %d refined)", evals, want, len(got.Frontier), refined)
			}
			if want := bypassSets(got.Frontier, false) + bypassSets(got.Frontier, true); runs != want {
				t.Errorf("RunObserver fired %d times, want %d", runs, want)
			}
			t.Logf("%d points (%d refined), %d solver runs", len(got.Frontier), refined, runs)
		})
	}
}

// TestPlaceInvalidInputs: unknown methods and impossible budgets fail with
// useful errors instead of empty results.
func TestPlaceInvalidInputs(t *testing.T) {
	cfg := quickCfg(t, "chain6")
	cfg.Method = "bogus"
	if _, err := Place(context.Background(), cfg); err == nil {
		t.Error("unknown method accepted")
	}
	cfg = quickCfg(t, "chain6")
	cfg.Budget = 1 // below even the all-bypass floor
	if _, err := Place(context.Background(), cfg); err == nil {
		t.Error("impossible budget accepted")
	}
	cfg = quickCfg(t, "chain6")
	cfg.Types = []BufferType{{Name: "", Cost: 1}}
	if _, err := Place(context.Background(), cfg); err == nil {
		t.Error("reserved empty type name accepted")
	}
}

// TestPlaceRefusesInvalidWeights: a NaN, infinite or negative latency
// weight and a NaN or negative cost budget are the caller's mistake, a
// core.ErrInvalidConfig before the DP runs. Zero keeps meaning the default
// (TestPlaceEndToEnd).
func TestPlaceRefusesInvalidWeights(t *testing.T) {
	for _, c := range []struct {
		name                      string
		latencyWeight, costBudget float64
	}{
		{"NaN latency weight", math.NaN(), 0},
		{"+Inf latency weight", math.Inf(1), 0},
		{"-Inf latency weight", math.Inf(-1), 0},
		{"negative latency weight", -1, 0},
		{"NaN cost budget", 0, math.NaN()},
		{"negative cost budget", 0, -3},
	} {
		cfg := quickCfg(t, "chain6")
		cfg.LatencyWeight, cfg.CostBudget = c.latencyWeight, c.costBudget
		if _, err := Place(context.Background(), cfg); !errors.Is(err, core.ErrInvalidConfig) {
			t.Errorf("%s: error %v, want core.ErrInvalidConfig", c.name, err)
		}
	}
}

// TestPlaceDPHonoursDeadline: the DP checks its context between merges and
// every few thousand candidates within one, so a placement whose DP alone
// runs for most of a second (a generated 21-bus tree) stops within 100 ms of
// a 20 ms deadline and says why.
func TestPlaceDPHonoursDeadline(t *testing.T) {
	a, err := scenario.Topology{Kind: scenario.KindTree, Buses: 21, FanOut: 1, Skew: 4, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Arch:    a,
		Budget:  3 * (len(a.Processors) + 2*len(a.Bridges)),
		Method:  solver.MethodAnalytic,
		Seeds:   []int64{1},
		Horizon: 100,
	}
	const deadline = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = Place(ctx, cfg)
	late := time.Since(start) - deadline
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Place under a %v deadline: err %v, want context.DeadlineExceeded", deadline, err)
	}
	if late > 100*time.Millisecond {
		t.Errorf("Place returned %v after its %v deadline, want within 100ms", late, deadline)
	}
}

// TestScreeningFasterThanOneExactSolve is the acceptance timing gate: on
// chain6, closed-form pricing of the entire 1024-placement space (≥100
// candidates) must cost less than a single exact CTMDP/LP solve of the
// fully-inserted architecture.
func TestScreeningFasterThanOneExactSolve(t *testing.T) {
	sc, _ := scenario.Get("chain6")
	a, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Arch: a, Types: DefaultCatalogue(), Budget: sc.Budget, LatencyWeight: 0.1}

	start := time.Now()
	p, err := newProblem(a.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, priced, _ := p.bruteForce()
	screenWall := time.Since(start)
	if priced < 100 {
		t.Fatalf("priced %d candidates, want ≥ 100", priced)
	}

	ecfg, err := sc.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	ecfg.Iterations, ecfg.Seeds, ecfg.Workers = 1, []int64{1}, 1
	start = time.Now()
	if _, err := solver.Run(context.Background(), ecfg); err != nil {
		t.Fatal(err)
	}
	exactWall := time.Since(start)

	t.Logf("screened %d placements in %v; one exact solve took %v", priced, screenWall, exactWall)
	if screenWall >= exactWall {
		t.Errorf("screening %d placements (%v) not faster than one exact solve (%v)", priced, screenWall, exactWall)
	}
}

// TestHybridRefinementWithin5PercentOfBruteForce is the acceptance quality
// gate: on
// a small chain, the hybrid-refined placement's exact-evaluated loss must
// come within 5% of the best placement found by exhaustively exact-solving
// the whole placement space.
func TestHybridRefinementWithin5PercentOfBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exact enumeration is slow")
	}
	a, err := scenario.Topology{
		Kind: "chain", Buses: 3, FanOut: 2, Utilisation: 0.9, Skew: 2, Seed: 11,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eval := Config{
		Arch:       a,
		Budget:     30,
		Iterations: 2,
		Seeds:      []int64{1, 2},
		Horizon:    600,
		WarmUp:     50,
	}

	// Exhaustive oracle: exact-evaluate every feasible placement.
	p, err := newProblem(a.Clone(), eval.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	best := int64(-1)
	var walk func(dec []int8, i int)
	walk = func(dec []int8, i int) {
		if i == len(p.bridges) {
			if p.buffersOf(dec) > eval.Budget {
				return
			}
			loss, _, err := p.evaluate(context.Background(), eval, solver.MethodExact, dec)
			if err != nil {
				t.Fatalf("exact %s: %v", p.signature(dec), err)
			}
			if best < 0 || loss < best {
				best = loss
			}
			return
		}
		if p.cut[i] {
			dec[i] = optBypass
			walk(dec, i+1)
		}
		for ty := range p.types {
			dec[i] = int8(ty)
			walk(dec, i+1)
		}
	}
	walk(make([]int8, len(p.bridges)), 0)
	if best < 0 {
		t.Fatal("no feasible placement in the oracle sweep")
	}

	cfg := eval
	cfg.Method = solver.MethodHybrid
	cfg.RefineTop = 3
	res, err := Place(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	limit := float64(best) * 1.05
	if limit < float64(best)+1 {
		limit = float64(best) + 1 // integer losses: always allow one count
	}
	t.Logf("brute-force best exact loss %d, hybrid chose %d (cost %g, %s)",
		best, res.Chosen.Loss, res.Chosen.Cost, res.Chosen.Method)
	if float64(res.Chosen.Loss) > limit {
		t.Errorf("hybrid placement loss %d exceeds 5%% over brute-force best %d", res.Chosen.Loss, best)
	}
}

// BenchmarkPlacementDP measures the pure DP (candidate enumeration, pricing
// and pruning — no solver evaluations) on the chain6 and tree7 registry
// topologies and on placement-workload-shaped ones: the first 14-bus star
// and 14-bus tree the socbufbench placement workload draws at seed 1, and
// a 17-bus tree, a 17-bus star and a 22-bus tree built the same way at
// seed 1 — the largest star and tree of 12–22 buses whose DP finishes
// within a second. PERFORMANCE.md tracks these rows.
func BenchmarkPlacementDP(b *testing.B) {
	type bench struct {
		name   string
		a      *arch.Architecture
		budget int
	}
	var cases []bench
	for _, name := range []string{"chain6", "tree7"} {
		sc, _ := scenario.Get(name)
		a, err := sc.Build()
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, bench{name, a, sc.Budget})
	}
	generated := func(kind string, buses int) *arch.Architecture {
		a, err := scenario.Topology{Kind: kind, Buses: buses, FanOut: 1, Skew: 4, Seed: 1}.Build()
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	for _, w := range []struct {
		name string
		a    *arch.Architecture
	}{
		{"star14", placementWorkloadTopology(b, 17)}, {"tree14", placementWorkloadTopology(b, 16)},
		{"tree17", generated(scenario.KindTree, 17)}, {"star17", generated(scenario.KindStar, 17)},
		{"tree22", generated(scenario.KindTree, 22)},
	} {
		// The workload's budget: three units per buffer of the fully
		// buffered architecture.
		cases = append(cases, bench{w.name, w.a, 3 * (len(w.a.Processors) + 2*len(w.a.Bridges))})
	}
	for _, c := range cases {
		cfg := Config{Arch: c.a, Types: DefaultCatalogue(), Budget: c.budget, LatencyWeight: 0.1}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := newProblem(c.a, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if front, _ := runDP(b, p); len(front) == 0 {
					b.Fatal("empty frontier")
				}
			}
		})
	}
}

// BenchmarkPlace times the whole placement — DP, screening and refinement —
// on the placement workload's first 14-bus tree, star, mesh and chain
// (placementWorkloadTopology 16–19) at the workload's knobs, and reports
// the solver runs each placement executes (runs/op, from RunObserver).
// BenchmarkPlacementDP times the DP alone.
func BenchmarkPlace(b *testing.B) {
	for i, name := range []string{"tree14", "star14", "mesh14", "chain14"} {
		a := placementWorkloadTopology(b, 16+i)
		var runs atomic.Int64
		cfg := Config{
			Arch: a, Budget: 3 * (len(a.Processors) + 2*len(a.Bridges)), Method: solver.MethodAnalytic,
			RefineTop: 1, Seeds: []int64{1}, Horizon: 100, WarmUp: 20,
			RunObserver: func(string, time.Duration) { runs.Add(1) },
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			runs.Store(0)
			for n := 0; n < b.N; n++ {
				if _, err := Place(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runs.Load())/float64(b.N), "runs/op")
		})
	}
}
