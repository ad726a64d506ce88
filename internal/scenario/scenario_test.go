package scenario

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"socbuf/internal/solver"
	"socbuf/internal/uncertain"
)

// TestRegistryBuiltins validates every built-in — nothing checks the table
// at process start — and pins its shape: names unique and sorted (Names and
// All return the table in its own order), the paper's three presets and at
// least three generated families.
func TestRegistryBuiltins(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry holds %d scenarios, want ≥ 6: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("built-in names not unique and sorted: %v", names)
		}
	}
	presets, generated := 0, 0
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Fatalf("built-in %q invalid: %v", s.Name, err)
		}
		if s.Topology.Kind == KindPreset {
			presets++
		} else {
			generated++
		}
	}
	if presets < 3 {
		t.Fatalf("registry holds %d presets, want the paper's 3", presets)
	}
	if generated < 3 {
		t.Fatalf("registry holds %d generated families, want ≥ 3", generated)
	}
	for _, want := range []string{"figure1", "twobus", "netproc"} {
		if _, ok := Get(want); !ok {
			t.Fatalf("preset scenario %q missing from registry", want)
		}
	}
}

func TestValidateRejectsInvalid(t *testing.T) {
	if err := (Scenario{Name: "", Budget: 10}).Validate(); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := (Scenario{
		Name:     "starved",
		Topology: Topology{Kind: KindPreset, Preset: "twobus"},
		Budget:   3, // twobus has 6 buffers after insertion
	}).Validate(); err == nil || !strings.Contains(err.Error(), "below one unit per buffer") {
		t.Fatalf("starved budget accepted (err=%v)", err)
	}
	base := Scenario{
		Name:     "warmup-check",
		Topology: Topology{Kind: KindPreset, Preset: "twobus"},
		Budget:   24,
	}
	inverted := base
	inverted.Horizon, inverted.WarmUp = 100, 200
	if err := inverted.Validate(); err == nil {
		t.Fatal("warm-up past horizon accepted")
	}
	floating := base
	floating.WarmUp = 3000 // no horizon: would only fail inside core.Run
	if err := floating.Validate(); err == nil {
		t.Fatal("warm-up without horizon accepted")
	}
	for _, bad := range []func(*Scenario){
		func(s *Scenario) { s.Budget = 0 },
		func(s *Scenario) { s.Iterations = -1 },
		func(s *Scenario) { s.Traffic = Traffic{Model: ModelOnOff, Burst: 1} },
		func(s *Scenario) { s.Topology = Topology{Kind: KindPreset, Preset: "nope"} },
		func(s *Scenario) { s.Uncertainty = &uncertain.Spec{Confidence: 1} },
	} {
		s := base
		bad(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("invalid scenario accepted: %+v", s)
		}
	}
	pinned := base
	pinned.Method = solver.MethodRobust
	if err := pinned.Validate(); err != nil {
		t.Fatalf("robust-pinned scenario rejected: %v", err)
	}
	pinned.Method = "annealing"
	err := pinned.Validate()
	if !errors.Is(err, solver.ErrUnknownMethod) ||
		!strings.Contains(err.Error(), "(valid methods: analytic | exact | hybrid | robust)") {
		t.Fatalf("unknown method: err = %v, want the uniform unknown-method error", err)
	}
}

func TestResolve(t *testing.T) {
	all, err := Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Names()) {
		t.Fatalf("Resolve(nil) returned %d scenarios, registry has %d", len(all), len(Names()))
	}
	two, err := Resolve([]string{"twobus", "chain6"})
	if err != nil {
		t.Fatal(err)
	}
	if two[0].Name != "twobus" || two[1].Name != "chain6" {
		t.Fatalf("Resolve order not preserved: %v, %v", two[0].Name, two[1].Name)
	}
	if _, err := Resolve([]string{"no-such"}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestCoreConfigCarriesTrafficAndArch(t *testing.T) {
	s, ok := Get("chain6-bursty")
	if !ok {
		t.Fatal("chain6-bursty not registered")
	}
	cfg, err := s.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arch == nil || cfg.Budget != s.Budget {
		t.Fatalf("config incomplete: arch=%v budget=%d", cfg.Arch, cfg.Budget)
	}
	if cfg.Traffic == nil {
		t.Fatal("onoff scenario produced a nil source factory")
	}
	srcs1, err := cfg.Traffic(cfg.Arch)
	if err != nil {
		t.Fatal(err)
	}
	srcs2, err := cfg.Traffic(cfg.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs1) != len(cfg.Arch.Flows) {
		t.Fatalf("factory built %d sources for %d flows", len(srcs1), len(cfg.Arch.Flows))
	}
	for k, s1 := range srcs1 {
		if s1 == srcs2[k] {
			t.Fatalf("flow %v: factory reuses a stateful source instance across calls", k)
		}
	}

	poisson, ok := Get("chain6")
	if !ok {
		t.Fatal("chain6 not registered")
	}
	pcfg, err := poisson.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if pcfg.Traffic != nil {
		t.Fatal("poisson scenario should keep the simulator's default sources")
	}
}

func TestOnOffTrafficPreservesFlowRates(t *testing.T) {
	tr := Traffic{Model: ModelOnOff, Burst: 5, MeanOn: 2}
	src, err := tr.flowSource(1.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Rate(); got < 1.699 || got > 1.701 {
		t.Fatalf("long-run rate %v, want 1.7", got)
	}
	// Empirical check: the mean inter-arrival gap over many draws inverts to
	// the flow rate.
	rng := rand.New(rand.NewSource(5))
	var total float64
	const n = 200000
	for i := 0; i < n; i++ {
		gap, err := src.Next(rng)
		if err != nil {
			t.Fatal(err)
		}
		total += gap
	}
	rate := n / total
	if rate < 1.6 || rate > 1.8 {
		t.Fatalf("empirical rate %v, want ≈ 1.7", rate)
	}
}

func TestTrafficValidation(t *testing.T) {
	bad := []Traffic{
		{Model: "mmpp"},
		{Model: ModelOnOff, Burst: 1},
		{Model: ModelOnOff, Burst: 0.5},
		{Model: ModelOnOff, Burst: 4, MeanOn: -1},
		{Model: ModelPoisson, Burst: 2},
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Fatalf("%+v: expected error", tr)
		}
	}
	good := []Traffic{{}, {Model: ModelPoisson}, {Model: ModelOnOff, Burst: 2}}
	for _, tr := range good {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%+v: %v", tr, err)
		}
	}
}
