package solvecache_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/ctmdp"
	"socbuf/internal/scenario"
	"socbuf/internal/solvecache"
)

// sameBits reports the first field in which two model solutions differ
// in a single bit: X, StateProb, LossRate, every ActionProb row, Visited.
func sameBits(want, got *ctmdp.ModelSolution) error {
	floats := func(field string, a, b []float64) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: length %d, want %d", field, len(b), len(a))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Errorf("%s[%d]: %v, want %v", field, i, b[i], a[i])
			}
		}
		return nil
	}
	if err := floats("X", want.X, got.X); err != nil {
		return err
	}
	if err := floats("StateProb", want.StateProb, got.StateProb); err != nil {
		return err
	}
	if math.Float64bits(want.LossRate) != math.Float64bits(got.LossRate) {
		return fmt.Errorf("LossRate: %v, want %v", got.LossRate, want.LossRate)
	}
	wp, gp := want.Policy, got.Policy
	if len(wp.ActionProb) != len(gp.ActionProb) || len(wp.Visited) != len(gp.Visited) {
		return fmt.Errorf("policy shape differs")
	}
	for s := range wp.ActionProb {
		if err := floats(fmt.Sprintf("ActionProb[%d]", s), wp.ActionProb[s], gp.ActionProb[s]); err != nil {
			return err
		}
		if wp.Visited[s] != gp.Visited[s] {
			return fmt.Errorf("Visited[%d]: %v, want %v", s, gp.Visited[s], wp.Visited[s])
		}
	}
	if got.Model != want.Model || gp.Model != want.Model {
		return fmt.Errorf("solution is not bound to the requesting model")
	}
	return nil
}

// samePermuted reports the first place where b's solution differs in a
// bit from a's read through a client map: each client of b is matched to
// the client of a with the same solve tuple and capacity quantum, so two
// tied clients match by the canonical slot their quanta give them. It
// checks the rebinding independently of the code under test.
func samePermuted(a, b *ctmdp.ModelSolution) error {
	ma, mb := a.Model, b.Model
	of := make([]int, len(mb.Clients)) // b's client c is a's client of[c]
	for c, cb := range mb.Clients {
		of[c] = -1
		for k, ca := range ma.Clients {
			if ca.Lambda == cb.Lambda && ca.Levels == cb.Levels && ca.LossWeight == cb.LossWeight &&
				ca.DownstreamFullProb == cb.DownstreamFullProb && ca.UnitsPerLevel == cb.UnitsPerLevel {
				of[c] = k
			}
		}
		if of[c] < 0 {
			return fmt.Errorf("client %d has no match", c)
		}
	}
	if math.Float64bits(a.LossRate) != math.Float64bits(b.LossRate) {
		return fmt.Errorf("LossRate: %v, want %v", b.LossRate, a.LossRate)
	}
	levels := make([]int, len(ma.Clients))
	for s := 0; s < mb.NumStates(); s++ {
		for c := range mb.Clients {
			levels[of[c]] = mb.Level(s, c)
		}
		sa, err := ma.StateOf(levels)
		if err != nil {
			return err
		}
		if math.Float64bits(a.StateProb[sa]) != math.Float64bits(b.StateProb[s]) || a.Policy.Visited[sa] != b.Policy.Visited[s] {
			return fmt.Errorf("state %d: probability or visited flag differs", s)
		}
		for c := range mb.Clients {
			if math.Float64bits(a.Policy.ActionProb[sa][of[c]]) != math.Float64bits(b.Policy.ActionProb[s][c]) {
				return fmt.Errorf("ActionProb[%d][%d]: %v, want %v", s, c, b.Policy.ActionProb[s][c], a.Policy.ActionProb[sa][of[c]])
			}
		}
		for _, v := range mb.StateVars(s) {
			_, act := mb.VarStateAction(v)
			if act >= 0 {
				act = of[act]
			}
			va, ok := ma.VarIndex(sa, act)
			if !ok || math.Float64bits(a.X[va]) != math.Float64bits(b.X[v]) {
				return fmt.Errorf("X at state %d, action %d differs", s, act)
			}
		}
	}
	return nil
}

// generatedArch returns a builder of one generated topology.
func generatedArch(t *testing.T, kind string, buses int) func() *arch.Architecture {
	return func() *arch.Architecture {
		a, err := scenario.Topology{Kind: kind, Buses: buses, FanOut: 2, Skew: 4, Seed: int64(buses)}.Build()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

// tiedModels returns two models of one bus whose first two clients tie on
// everything a solve reads and differ in capacity quanta, in opposite
// orders: the tied clients trade canonical slots between the two.
func tiedModels(t *testing.T) (*ctmdp.Model, *ctmdp.Model) {
	tied := func(id string, units float64) ctmdp.Client {
		return ctmdp.Client{BufferID: id, Lambda: 0.9, Levels: 2, UnitsPerLevel: units, LossWeight: 1, DownstreamFullProb: 0.1}
	}
	other := ctmdp.Client{BufferID: "z", Lambda: 1.7, Levels: 2, UnitsPerLevel: 4, LossWeight: 2}
	m1, err := ctmdp.NewModel("bus", 3, []ctmdp.Client{tied("a", 2), tied("b", 5), other})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ctmdp.NewModel("bus", 3, []ctmdp.Client{tied("a", 5), tied("b", 2), other})
	if err != nil {
		t.Fatal(err)
	}
	return m1, m2
}

// TestHitRederivesColdBits: an exact-tier entry keeps only its canonical
// model and measure, and a hit re-derives the rest. The re-derived,
// rebound solution must equal the requesting model's own cold solve bit
// for bit — X, StateProb, LossRate, every ActionProb row and Visited — on
// the presets, on generated 4–8-bus chains, stars and trees, and on models
// answered from another model's entry: permuted clients, and tied clients
// that trade canonical slots. A hit from another model's entry must also
// equal that model's solution read through the client correspondence.
func TestHitRederivesColdBits(t *testing.T) {
	var none *solvecache.Cache
	cold := func(m *ctmdp.Model) *ctmdp.ModelSolution {
		t.Helper()
		sol, err := none.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return sol.PerModel[0]
	}
	type source struct {
		name   string
		arch   func() *arch.Architecture
		budget int
	}
	sources := []source{{"twobus", arch.TwoBusAMBA, 24}, {"netproc", arch.NetworkProcessor, 160}}
	for _, kind := range []string{scenario.KindChain, scenario.KindStar, scenario.KindTree} {
		for n := 4; n <= 8; n++ {
			// Three units per buffer: two processors per bus, two
			// buffers per bridge.
			sources = append(sources, source{fmt.Sprintf("%s%d", kind, n), generatedArch(t, kind, n), 3 * (2*n + 2*(n-1))})
		}
	}
	checked := 0
	for _, src := range sources {
		for _, m := range presetModels(t, src.arch, src.budget) {
			want := cold(m)
			c := solvecache.New()
			for pass, label := range []string{"miss", "hit"} {
				sol, err := c.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(want, sol.PerModel[0]); err != nil {
					t.Errorf("%s bus %s, %s: %v", src.name, m.Bus, label, err)
				}
				if s := c.Stats(); s.Hits != int64(pass) || s.Misses != 1 {
					t.Fatalf("%s bus %s: counters %+v after the %s", src.name, m.Bus, s, label)
				}
			}
			checked++
		}
	}
	if checked < 60 {
		t.Fatalf("checked %d bus models, want at least 60", checked)
	}

	perm1, err := ctmdp.NewModel("bus", 4, []ctmdp.Client{
		{BufferID: "a", Lambda: 1.2, Levels: 2, UnitsPerLevel: 3, LossWeight: 1},
		{BufferID: "b", Lambda: 0.4, Levels: 2, UnitsPerLevel: 2, LossWeight: 2, DownstreamFullProb: 0.2},
		{BufferID: "c", Lambda: 2.1, Levels: 1, UnitsPerLevel: 6, LossWeight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	perm2, err := ctmdp.NewModel("bus", 4, []ctmdp.Client{perm1.Clients[2], perm1.Clients[0], perm1.Clients[1]})
	if err != nil {
		t.Fatal(err)
	}
	tied1, tied2 := tiedModels(t)
	for _, pair := range []struct {
		name       string
		first, hit *ctmdp.Model
	}{
		{"permuted", perm1, perm2},
		{"tied", tied1, tied2},
		{"tied reversed", tied2, tied1},
	} {
		c := solvecache.New()
		first, err := c.SolveJoint([]*ctmdp.Model{pair.first}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := c.SolveJoint([]*ctmdp.Model{pair.hit}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
			t.Fatalf("%s: second model did not hit the first's entry: %+v", pair.name, s)
		}
		if err := sameBits(cold(pair.hit), sol.PerModel[0]); err != nil {
			t.Errorf("%s: %v", pair.name, err)
		}
		if err := samePermuted(first.PerModel[0], sol.PerModel[0]); err != nil {
			t.Errorf("%s: against the first model's solution: %v", pair.name, err)
		}
	}
}

// TestExactHitAllocs gates the allocations of one exact-tier hit on
// netproc's largest bus model (81 states): 24, where it took 98 before
// entries kept only their measure and policies kept their rows in one
// array. The count is deterministic, so a change that allocates per state
// again fails here rather than on noisy wall time.
func TestExactHitAllocs(t *testing.T) {
	var m *ctmdp.Model
	for _, bm := range presetModels(t, arch.NetworkProcessor, 160) {
		if m == nil || bm.NumStates() > m.NumStates() {
			m = bm
		}
	}
	models := []*ctmdp.Model{m}
	c := solvecache.New()
	if _, err := c.SolveJoint(models, ctmdp.JointConfig{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.SolveJoint(models, ctmdp.JointConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("the gated solves were not all hits: %+v", s)
	}
	if allocs > 24 {
		t.Errorf("one exact-tier hit on a %d-state model: %v allocs, want at most 24", m.NumStates(), allocs)
	}
}

// TestExactEntriesRetainedBytes bounds what the exact tier keeps per
// entry: a fresh cache filled by a fixed exact sweep (five generated
// chains of 4–8 buses, three budgets each, 180 entries) retains, after a
// forced GC, at most 1,200 heap bytes per entry, tier bookkeeping
// included. It read 818–852 bytes; before entries kept only their
// canonical model and measure, the same sweep retained 3,736.
func TestExactEntriesRetainedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an exact sweep")
	}
	sweep := func(c *solvecache.Cache) {
		t.Helper()
		for n := 4; n <= 8; n++ {
			a, err := scenario.Topology{Kind: scenario.KindChain, Buses: n, FanOut: 1, Skew: 4, Seed: int64(n)}.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int{8 * n, 10 * n, 12 * n} {
				cfg := core.Config{Arch: a, Budget: budget, Iterations: 2, Seeds: []int64{1}, Horizon: 150, WarmUp: 30, Workers: 1, Cache: c}
				if _, err := core.RunCtx(context.Background(), cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// A first sweep fills what stays for the process: the shared state
	// spaces and whatever else is built on first use.
	sweep(solvecache.New())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := solvecache.New()
	sweep(c)
	runtime.GC()
	runtime.ReadMemStats(&after)
	entries := c.Stats().Entries
	runtime.KeepAlive(c)
	if entries < 100 {
		t.Fatalf("the sweep filed %d entries, want at least 100", entries)
	}
	perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(entries)
	t.Logf("%d entries, %.0f retained bytes each", entries, perEntry)
	if perEntry > 1200 {
		t.Errorf("the exact tier retains %.0f bytes per entry, want at most 1200", perEntry)
	}
}
