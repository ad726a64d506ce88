package solvecache_test

import (
	"errors"
	"math"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/ctmdp"
	"socbuf/internal/lp"
	"socbuf/internal/parallel"
	"socbuf/internal/solvecache"
)

// presets is the warm-vs-cold equivalence table: every architecture preset
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

// TestWarmVsColdEquivalence is the correctness gate of the tentpole: over
// every architecture preset, with refinement off and on, the cache's three
// answer paths — cold canonical solve, exact hit, and capacity-changed warm
// start — agree with each other to 1e-8 (hits and warm starts are in fact
// bit-identical to the canonical cold solve), and with the uncached solver
// on the optimum they reach.
func TestWarmVsColdEquivalence(t *testing.T) {
	for _, p := range presets {
		for _, refine := range []bool{false, true} {
			cfg := ctmdp.JointConfig{RefineStationary: refine}
			name := p.name
			if refine {
				name += "-refined"
			}
			t.Run(name, func(t *testing.T) {
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
				assertSolutionsAgree(t, cold, hit, 1e-8, "cold vs exact hit")

				// Capacity change only: rebuild the models at a different
				// budget — UnitsPerLevel shifts, everything else is
				// bit-identical (capacities never feed back into rates).
				resized := presetModels(t, p.arch, p.budget+len(models))
				warm, err := c.SolveJoint(resized, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if s := c.Stats(); s.WarmStarts == 0 {
					t.Fatalf("capacity-only change produced no warm starts: %+v", s)
				}
				freshCold, err := solvecache.New().SolveJoint(resized, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSolutionsAgree(t, freshCold, warm, 1e-8, "warm vs cold")
			})
		}
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

// TestCacheCappedJoint covers the occupancy-cap linked program: cached at
// whole-program granularity, warm-seeding its refinement from the free
// solutions, agreeing with the uncached solver to 1e-8 on the optimum.
func TestCacheCappedJoint(t *testing.T) {
	for _, refine := range []bool{false, true} {
		models := presetModels(t, arch.Figure1, 40)
		free, err := ctmdp.SolveJoint(models, ctmdp.JointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := ctmdp.JointConfig{OccupancyCap: free.OccupancyUsed * 0.9, RefineStationary: refine}

		c := solvecache.New()
		// Free solves first, as the methodology loop does — they seed the
		// capped refinement.
		if _, err := c.SolveJoint(models, ctmdp.JointConfig{RefineStationary: refine}); err != nil {
			t.Fatal(err)
		}
		cold, err := c.SolveJoint(models, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := c.SolveJoint(models, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.JointMisses != 1 || s.JointHits != 1 {
			t.Fatalf("refine=%v: joint counters off: %+v", refine, s)
		}
		assertSolutionsAgree(t, cold, hit, 1e-8, "capped cold vs hit")
		if cold.CapBinding != hit.CapBinding {
			t.Errorf("refine=%v: cap-binding flag not preserved", refine)
		}

		uncached, err := ctmdp.SolveJoint(models, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(uncached.TotalLossRate - cold.TotalLossRate); d > 1e-8 {
			t.Errorf("refine=%v: capped cached vs uncached objectives differ by %g", refine, d)
		}
	}
}

// TestCacheInfeasibleCap: infeasibility must surface as ctmdp.ErrInfeasible
// through the cache (core's retry ladder matches on it) and must not be
// cached as a solution.
func TestCacheInfeasibleCap(t *testing.T) {
	models := presetModels(t, arch.TwoBusAMBA, 24)
	c := solvecache.New()
	_, err := c.SolveJoint(models, ctmdp.JointConfig{OccupancyCap: 1e-9})
	if err == nil {
		t.Fatal("absurd cap accepted")
	}
	if !errors.Is(err, ctmdp.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible in chain, got %v", err)
	}
	if s := c.Stats(); s.JointEntries != 0 {
		t.Fatalf("infeasible solve was cached: %+v", s)
	}
}

// TestCacheConcurrent hammers one shared cache from the worker pool — the
// sweep engine's exact usage — under -race: mixed hits, warm starts and
// misses, with every answer agreeing with an uncached reference solve. The
// bounded variant evicts concurrently and must stay within its bound.
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
		if s.Hits+s.WarmStarts+s.Misses != rounds {
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

// TestCacheBasisRoundTrip: a decoupled cache solve must hand back a Basis
// usable exactly like a direct ctmdp.SolveJoint's — for a single model, the
// currency of JointConfig.WarmBasis — even when the requesting model's
// client order differs from the canonical order the cache solved in.
func TestCacheBasisRoundTrip(t *testing.T) {
	models := presetModels(t, arch.TwoBusAMBA, 24)
	c := solvecache.New()
	for _, m := range models {
		free, err := c.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(free.Basis) != m.NumStates()+1 {
			t.Fatalf("model %q: basis has %d refs, want one per row (%d)",
				m.Bus, len(free.Basis), m.NumStates()+1)
		}
		capped := ctmdp.JointConfig{
			OccupancyCap: free.OccupancyUsed * 0.9,
			WarmBasis:    [][]lp.BasicRef{free.Basis},
		}
		warm, err := ctmdp.SolveJoint([]*ctmdp.Model{m}, capped)
		if err != nil {
			t.Fatalf("model %q: warm capped: %v", m.Bus, err)
		}
		capped.WarmBasis = nil
		cold, err := ctmdp.SolveJoint([]*ctmdp.Model{m}, capped)
		if err != nil {
			t.Fatalf("model %q: cold capped: %v", m.Bus, err)
		}
		if d := math.Abs(warm.TotalLossRate - cold.TotalLossRate); d > 1e-8 {
			t.Errorf("model %q: basis-seeded capped solve off by %g", m.Bus, d)
		}
	}
	// Multi-model solves skip the basis hand-back (a concatenated basis has
	// no JointConfig consumer, and the hot sweep path must not pay for it).
	joint, err := c.SolveJoint(models, ctmdp.JointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if joint.Basis != nil {
		t.Fatalf("multi-model cache solve returned a basis (%d refs)", len(joint.Basis))
	}
}
