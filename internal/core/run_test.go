package core

import (
	"context"
	"reflect"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/ctmdp"
	"socbuf/internal/solvecache"
)

// fastCfg keeps unit-test runs quick.
func fastCfg(a *arch.Architecture, budget int) Config {
	return Config{
		Arch:       a,
		Budget:     budget,
		Iterations: 2,
		Seeds:      []int64{1},
		Horizon:    800,
		WarmUp:     50,
	}
}

func TestRunTwoBus(t *testing.T) {
	res, err := Run(fastCfg(arch.TwoBusAMBA(), 24))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %d", len(res.Iterations))
	}
	if res.Best == nil {
		t.Fatal("no best iteration")
	}
	if err := res.Best.Alloc.Validate(res.Arch, 24); err != nil {
		t.Fatalf("best allocation invalid: %v", err)
	}
	if res.Best.Alloc.Total() != 24 {
		t.Fatalf("budget not exhausted: %d", res.Best.Alloc.Total())
	}
	// The split must be one linear subsystem per bus.
	if len(res.Subsystems) != 2 {
		t.Fatalf("subsystems = %d", len(res.Subsystems))
	}
	for _, s := range res.Subsystems {
		if !s.Linear() {
			t.Fatalf("nonlinear subsystem after insertion: %v", s.Buses)
		}
	}
	if res.FinalSolution == nil {
		t.Fatal("no final solution")
	}
}

func TestRunImprovesLoadedSystem(t *testing.T) {
	// Tight budget on the two-bus system: CTMDP sizing + arbitration must
	// beat uniform sizing. Generous horizon keeps noise down.
	cfg := Config{
		Arch:       arch.TwoBusAMBA(),
		Budget:     24,
		Iterations: 4,
		Seeds:      []int64{1, 2, 3},
		Horizon:    1500,
		WarmUp:     100,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineLoss == 0 {
		t.Skip("baseline lost nothing; system not loaded enough to compare")
	}
	if res.Best.SimLoss >= res.BaselineLoss {
		t.Fatalf("no improvement: baseline %d, best %d", res.BaselineLoss, res.Best.SimLoss)
	}
	if res.Improvement() <= 0 {
		t.Fatalf("improvement = %v", res.Improvement())
	}
}

func TestRunFigure1HandlesDualHomedInertBuffer(t *testing.T) {
	// p2@a carries no traffic; the methodology must still produce a full
	// allocation with its one-unit floor.
	res, err := Run(fastCfg(arch.Figure1(), 40))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Best.Alloc["p2@a"]; got != 1 {
		t.Fatalf("inert buffer p2@a allocated %d, want the 1-unit floor", got)
	}
	if res.Best.Alloc.Total() != 40 {
		t.Fatalf("budget not exhausted: %d", res.Best.Alloc.Total())
	}
	// Bridge buffers must exist in the allocation (buffer insertion ran).
	for _, id := range []string{"br1:b>", "br1:f>", "br2:f>", "br2:g>"} {
		if res.Best.Alloc[id] < 1 {
			t.Fatalf("bridge buffer %s missing from allocation %v", id, res.Best.Alloc)
		}
	}
}

func TestRunDoesNotMutateCallerArch(t *testing.T) {
	a := arch.Figure1()
	if _, err := Run(fastCfg(a, 40)); err != nil {
		t.Fatal(err)
	}
	for _, br := range a.Bridges {
		if br.Buffered {
			t.Fatal("Run mutated the caller's architecture")
		}
	}
}

// TestRunPrivateCacheMatchesShared: a run without a Cache gets a private
// one, so it takes the same solve path as a run over a shared cache — even
// one already warm from an identical run, answering every solve as a hit.
func TestRunPrivateCacheMatchesShared(t *testing.T) {
	cfg := fastCfg(arch.TwoBusAMBA(), 24)
	s, err := NewStepper(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().Cache == nil {
		t.Fatal("stepper without a Cache got no private cache")
	}
	private, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = solvecache.New()
	for pass := 0; pass < 2; pass++ {
		shared, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range shared.Iterations {
			want := private.Iterations[i]
			if it.SimLoss != want.SimLoss || it.ModelLoss != want.ModelLoss || !reflect.DeepEqual(it.Alloc, want.Alloc) {
				t.Fatalf("pass %d iteration %d: shared cache (%d, %v) vs private (%d, %v)",
					pass, i, it.SimLoss, it.ModelLoss, want.SimLoss, want.ModelLoss)
			}
		}
	}
	if cfg.Cache.Stats().Hits == 0 {
		t.Fatal("second run over the shared cache hit nothing")
	}
}

func TestRunLossWeights(t *testing.T) {
	// Weighting one processor's losses heavily must not break the pipeline
	// (§3's "weighing of the loss at processors").
	cfg := fastCfg(arch.TwoBusAMBA(), 24)
	cfg.LossWeights = map[string]float64{"cpu": 10}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunConfigValidation(t *testing.T) {
	base := fastCfg(arch.TwoBusAMBA(), 24)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil arch", func(c *Config) { c.Arch = nil }},
		{"zero budget", func(c *Config) { c.Budget = 0 }},
		{"negative iterations", func(c *Config) { c.Iterations = -1 }},
		{"negative horizon", func(c *Config) { c.Horizon = -5 }},
		{"warmup past horizon", func(c *Config) { c.WarmUp = 1e9 }},
		{"budget below floor", func(c *Config) { c.Budget = 2 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestLargestModelIsMaxStates ties the quantisation constants to the ctmdp
// bound: every preset's bus models pass NewModel's ctmdp.MaxStates check,
// and netproc's busiest bus, with maxClients clients at levels 0..levels,
// reaches the bound exactly.
func TestLargestModelIsMaxStates(t *testing.T) {
	for _, tc := range []struct {
		a    *arch.Architecture
		want int // largest model's state count; 0: anything within the bound
	}{
		{arch.Figure1(), 0},
		{arch.TwoBusAMBA(), 0},
		{arch.NetworkProcessor(), ctmdp.MaxStates},
	} {
		b := tc.a.Clone()
		b.InsertBridgeBuffers()
		alloc, err := arch.UniformAllocation(b, 160)
		if err != nil {
			t.Fatal(err)
		}
		models, err := BuildSubsystemModels(b, alloc, Config{Arch: b, Budget: 160})
		if err != nil {
			t.Fatalf("%s: %v", tc.a.Name, err)
		}
		largest := 0
		for _, m := range models {
			largest = max(largest, m.NumStates())
		}
		if tc.want > 0 && largest != tc.want {
			t.Fatalf("%s: largest bus has %d states, want %d", tc.a.Name, largest, tc.want)
		}
	}
}

func TestIterationBookkeeping(t *testing.T) {
	res, err := Run(fastCfg(arch.TwoBusAMBA(), 24))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.Iterations {
		if it.Index != i {
			t.Fatalf("iteration %d has index %d", i, it.Index)
		}
		if it.ModelLoss < 0 {
			t.Fatalf("negative model loss %v", it.ModelLoss)
		}
		if it.LossByProc == nil {
			t.Fatal("nil per-processor losses")
		}
		var sum int64
		for _, v := range it.LossByProc {
			sum += v
		}
		if sum != it.SimLoss {
			t.Fatalf("per-processor losses sum to %d, total is %d", sum, it.SimLoss)
		}
	}
	// Best is genuinely the minimum.
	for _, it := range res.Iterations {
		if it.SimLoss < res.Best.SimLoss {
			t.Fatalf("best (%d) is not minimal (%d)", res.Best.SimLoss, it.SimLoss)
		}
	}
}
