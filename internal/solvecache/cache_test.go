package solvecache_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/ctmdp"
	"socbuf/internal/parallel"
	"socbuf/internal/scenario"
	"socbuf/internal/solvecache"
)

// presets is the hit-vs-cold equivalence table: every architecture preset
// at its usual test budget.
var presets = []struct {
	name   string
	arch   func() *arch.Architecture
	budget int
}{
	{"figure1", arch.Figure1, 40},
	{"twobus", arch.TwoBusAMBA, 24},
	{"netproc", arch.NetworkProcessor, 160},
}

// presetModels builds the initial sub-models of one preset at one budget —
// the same construction core.Run starts from.
func presetModels(t *testing.T, newArch func() *arch.Architecture, budget int) []*ctmdp.Model {
	t.Helper()
	a := newArch()
	a.InsertBridgeBuffers()
	alloc, err := arch.UniformAllocation(a, budget)
	if err != nil {
		t.Fatal(err)
	}
	models, err := core.BuildSubsystemModels(a, alloc, core.Config{Arch: a, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return models
}

// maxDiff returns max_i |a_i − b_i|.
func maxDiff(t *testing.T, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch %d vs %d", len(a), len(b))
	}
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// assertSolutionsAgree checks two joint solutions describe the same optimum
// to tol: objective, per-model loss rates, stationary distributions and
// occupation measures.
func assertSolutionsAgree(t *testing.T, a, b *ctmdp.JointSolution, tol float64, label string) {
	t.Helper()
	if d := math.Abs(a.TotalLossRate - b.TotalLossRate); d > tol {
		t.Errorf("%s: total loss rates differ by %g", label, d)
	}
	if d := math.Abs(a.OccupancyUsed - b.OccupancyUsed); d > tol {
		t.Errorf("%s: occupancies differ by %g", label, d)
	}
	if len(a.PerModel) != len(b.PerModel) {
		t.Fatalf("%s: model counts differ", label)
	}
	for i := range a.PerModel {
		am, bm := a.PerModel[i], b.PerModel[i]
		if d := math.Abs(am.LossRate - bm.LossRate); d > tol {
			t.Errorf("%s: model %d loss rates differ by %g", label, i, d)
		}
		if d := maxDiff(t, am.StateProb, bm.StateProb); d > tol {
			t.Errorf("%s: model %d stationary distributions differ by %g", label, i, d)
		}
		if d := maxDiff(t, am.X, bm.X); d > tol {
			t.Errorf("%s: model %d occupation measures differ by %g", label, i, d)
		}
	}
}

// TestWarmVsColdEquivalence is the cache's correctness gate: over every
// architecture preset, a hit — of the same models, or of models whose
// capacities alone changed — is bit-identical to a fresh cold solve of the
// requesting models, and the cold canonical solve agrees with the uncached
// solver on the optimum it reaches.
func TestWarmVsColdEquivalence(t *testing.T) {
	var cfg ctmdp.JointConfig
	for _, p := range presets {
		t.Run(p.name, func(t *testing.T) {
			models := presetModels(t, p.arch, p.budget)
			uncached, err := ctmdp.SolveJoint(models, cfg)
			if err != nil {
				t.Fatal(err)
			}

			c := solvecache.New()
			cold, err := c.SolveJoint(models, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := c.Stats(); s.Misses != int64(len(models)) || s.Hits != 0 {
				t.Fatalf("cold pass counters off: %+v", s)
			}
			// The cache solves per canonical block rather than one
			// block-diagonal program, so it may land on a different
			// vertex of a degenerate optimum; the optimum itself (the
			// objective) must agree to 1e-8.
			if d := math.Abs(cold.TotalLossRate - uncached.TotalLossRate); d > 1e-8 {
				t.Errorf("cached vs uncached objectives differ by %g", d)
			}

			hit, err := c.SolveJoint(models, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := c.Stats(); s.Hits != int64(len(models)) {
				t.Fatalf("exact pass counters off: %+v", s)
			}
			assertSolutionsAgree(t, cold, hit, 0, "cold vs hit")

			// Capacity change only: rebuild the models at a different
			// budget — UnitsPerLevel shifts, everything else is
			// bit-identical (capacities never feed back into rates) —
			// and every solve is a hit.
			resized := presetModels(t, p.arch, p.budget+len(models))
			resizedHit, err := c.SolveJoint(resized, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := c.Stats(); s.Hits != 2*int64(len(models)) || s.Misses != int64(len(models)) {
				t.Fatalf("capacity-only change was not all hits: %+v", s)
			}
			freshCold, err := solvecache.New().SolveJoint(resized, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSolutionsAgree(t, freshCold, resizedHit, 0, "capacity-changed hit vs cold")
		})
	}
}

// TestCachePermutedModel: a model whose clients arrive in a different order
// is the same sub-model; the cache must hit and rebind the solution onto the
// permuted enumeration so that it matches that model's own cold solve.
func TestCachePermutedModel(t *testing.T) {
	clients := []ctmdp.Client{
		{BufferID: "a", Lambda: 1.2, Levels: 2, UnitsPerLevel: 3, LossWeight: 1},
		{BufferID: "b", Lambda: 0.4, Levels: 2, UnitsPerLevel: 2, LossWeight: 2, DownstreamFullProb: 0.2},
		{BufferID: "c", Lambda: 2.1, Levels: 1, UnitsPerLevel: 6, LossWeight: 1},
	}
	m1, err := ctmdp.NewModel("bus", 4, clients)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ctmdp.NewModel("bus", 4, []ctmdp.Client{clients[2], clients[0], clients[1]})
	if err != nil {
		t.Fatal(err)
	}

	c := solvecache.New()
	cfg := ctmdp.JointConfig{}
	if _, err := c.SolveJoint([]*ctmdp.Model{m1}, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := c.SolveJoint([]*ctmdp.Model{m2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("permuted model did not hit: %+v", s)
	}
	want, err := ctmdp.SolveJoint([]*ctmdp.Model{m2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSolutionsAgree(t, want, got, 1e-8, "permuted rebind vs cold")
	// The rebound policy must act on m2's own client indexing.
	probs, err := got.PerModel[0].Policy.Action([]int{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if probs[0] < 0.99 {
		t.Errorf("policy must grant the only non-empty client, got %v", probs)
	}
}

// TestCacheCappedJoint covers the occupancy-cap linked program: never
// cached (each call solves afresh, counts one capped solve and files no
// entry), the same answer on every call, and agreeing with the uncached
// solver to 1e-8 on the optimum.
func TestCacheCappedJoint(t *testing.T) {
	models := presetModels(t, arch.Figure1, 40)
	free, err := ctmdp.SolveJoint(models, ctmdp.JointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ctmdp.JointConfig{OccupancyCaps: []float64{free.OccupancyUsed * 0.9}}

	c := solvecache.New()
	// Free solves first, as the methodology loop does.
	if _, err := c.SolveJoint(models, ctmdp.JointConfig{}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	first, err := c.SolveJoint(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.SolveJoint(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.JointMisses != 2 || s.JointHits != 0 || s.JointEntries != 0 || s.Entries != before.Entries {
		t.Fatalf("capped solves were cached or miscounted: %+v", s)
	}
	assertSolutionsAgree(t, first, again, 0, "capped first vs again")
	if first.CapBinding != again.CapBinding || first.Price != again.Price {
		t.Error("repeated capped solves disagree")
	}

	uncached, err := ctmdp.SolveJoint(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(uncached.TotalLossRate - first.TotalLossRate); d > 1e-8 {
		t.Errorf("capped cached vs uncached objectives differ by %g", d)
	}
}

// TestNilCacheSolvesLikeFreshCache: a run without a cache solves through a
// nil *Cache, which must canonicalise, solve and rebind every model exactly
// as a fresh cache's misses do — free and capped, bit for bit.
func TestNilCacheSolvesLikeFreshCache(t *testing.T) {
	chain6, ok := scenario.Get("chain6")
	if !ok {
		t.Fatal("chain6 scenario missing")
	}
	buildChain6 := func() *arch.Architecture {
		a, err := chain6.Topology.Build()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, p := range []struct {
		name   string
		arch   func() *arch.Architecture
		budget int
	}{
		{"twobus", arch.TwoBusAMBA, 24},
		{"netproc", arch.NetworkProcessor, 160},
		{"chain6", buildChain6, chain6.Budget},
	} {
		models := presetModels(t, p.arch, p.budget)
		var none *solvecache.Cache
		free, err := none.SolveJoint(models, ctmdp.JointConfig{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		capped := ctmdp.JointConfig{OccupancyCaps: []float64{free.OccupancyUsed * 0.9, free.OccupancyUsed * 0.97}}
		for _, cfg := range []ctmdp.JointConfig{{}, capped} {
			c := solvecache.New()
			want, errWant := c.SolveJoint(models, cfg)
			got, errGot := none.SolveJoint(models, cfg)
			if errWant != nil || errGot != nil {
				t.Fatalf("%s caps %v: fresh cache %v, nil cache %v", p.name, cfg.OccupancyCaps, errWant, errGot)
			}
			// Iters differs only where a fresh cache hits a repeated
			// sub-model that the nil cache solves again.
			got.Iters = want.Iters
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s caps %v: nil-cache solution differs from a fresh cache's", p.name, cfg.OccupancyCaps)
			}
		}
	}
}

// TestCacheInfeasibleCap: infeasibility must surface as ctmdp.ErrInfeasible
// through the cache (core's retry ladder matches on it) and must not be
// cached as a solution.
func TestCacheInfeasibleCap(t *testing.T) {
	models := presetModels(t, arch.TwoBusAMBA, 24)
	c := solvecache.New()
	_, err := c.SolveJoint(models, ctmdp.JointConfig{OccupancyCaps: []float64{1e-9}})
	if err == nil {
		t.Fatal("absurd cap accepted")
	}
	if !errors.Is(err, ctmdp.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible in chain, got %v", err)
	}
	if s := c.Stats(); s.JointMisses != 1 || s.Entries != 0 {
		t.Fatalf("infeasible capped solve miscounted or cached: %+v", s)
	}
}

// TestCacheConcurrent hammers one shared cache from the worker pool — the
// sweep engine's exact usage — under -race: mixed hits and misses, with
// every answer agreeing with an uncached reference solve. The bounded
// variant evicts concurrently and must stay within its bound.
func TestCacheConcurrent(t *testing.T) {
	base := presetModels(t, arch.TwoBusAMBA, 24)
	resized := presetModels(t, arch.TwoBusAMBA, 30)
	pool := append(append([]*ctmdp.Model{}, base...), resized...)
	refs := make([]*ctmdp.JointSolution, len(pool))
	for i, m := range pool {
		ref, err := ctmdp.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	for _, bound := range []int{0, 2} {
		c := solvecache.NewBounded(bound)
		const rounds = 64
		err := parallel.ForEach(rounds, 8, func(i int) error {
			k := i % len(pool)
			got, err := c.SolveJoint([]*ctmdp.Model{pool[k]}, ctmdp.JointConfig{})
			if err != nil {
				return err
			}
			if d := math.Abs(got.TotalLossRate - refs[k].TotalLossRate); d > 1e-8 {
				t.Errorf("bound %d, round %d: objective off by %g", bound, i, d)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s := c.Stats()
		if s.Hits+s.Misses != rounds {
			t.Fatalf("bound %d: counters don't add up to %d solves: %+v", bound, rounds, s)
		}
		if bound > 0 {
			if s.Entries > bound {
				t.Fatalf("bounded cache holds %d entries, bound %d", s.Entries, bound)
			}
		} else if s.Misses == 0 || s.Hits == 0 {
			t.Fatalf("expected a mix of hits and misses: %+v", s)
		}
	}
}
