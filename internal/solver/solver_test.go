package solver_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"socbuf/internal/core"
	"socbuf/internal/scenario"
	"socbuf/internal/solver"
)

// quickCfg trims a scenario's methodology configuration to test-suite cost.
func quickCfg(t *testing.T, name string) core.Config {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	cfg, err := sc.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Iterations = 4
	cfg.Seeds = []int64{1}
	cfg.Horizon = 400
	cfg.WarmUp = 50
	return cfg
}

// gateScenarios is the instance set of the registry-wide acceptance gates:
// the whole registry normally, the four fast scenarios under the race
// detector (see race_on_test.go for why).
func gateScenarios() []string {
	if raceEnabled {
		return []string{"twobus", "figure1", "star6", "chain6"}
	}
	return scenario.Names()
}

// TestExactBackendMatchesCoreRun is the refactor's byte-identical gate: the
// exact backend routed through the solver table must reproduce the
// pre-refactor direct core.Run output exactly, on every registry scenario.
func TestExactBackendMatchesCoreRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range gateScenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := quickCfg(t, name)
			direct, err := core.RunCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg = quickCfg(t, name)
			cfg.Method = solver.MethodExact
			viaSolver, err := solver.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct.Best.Alloc, viaSolver.Best.Alloc) ||
				direct.Best.SimLoss != viaSolver.Best.SimLoss ||
				direct.BaselineLoss != viaSolver.BaselineLoss ||
				len(direct.Iterations) != len(viaSolver.Iterations) {
				t.Fatalf("exact backend diverges from core.Run:\nsolver: %+v\ndirect: %+v",
					viaSolver.Best, direct.Best)
			}
			for i := range direct.Iterations {
				d, s := direct.Iterations[i], viaSolver.Iterations[i]
				if !reflect.DeepEqual(d.Alloc, s.Alloc) || d.SimLoss != s.SimLoss || d.ModelLoss != s.ModelLoss {
					t.Fatalf("iteration %d diverges: %+v vs %+v", i, s, d)
				}
			}
		})
	}
}

// TestHybridMatchesExactSizing is the acceptance gate for the
// screen-then-refine backend: on every registry scenario the hybrid
// backend's chosen sizing must equal the exact backend's — at an iteration
// count (6) deep enough that the trajectory cycles and the early cut
// actually fires, while keeping the suite inside the -race CI budget. The
// cut must also save iterations somewhere, or hybrid is exact with extra
// steps.
func TestHybridMatchesExactSizing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	saved := false
	var mu sync.Mutex
	for _, name := range gateScenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := quickCfg(t, name)
			cfg.Iterations = 6
			cfg.Method = solver.MethodExact
			exactRes, err := solver.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg = quickCfg(t, name)
			cfg.Iterations = 6
			cfg.Method = solver.MethodHybrid
			hybridRes, err := solver.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exactRes.Best.Alloc, hybridRes.Best.Alloc) {
				t.Fatalf("hybrid sizing diverges from exact (%d vs %d hybrid iterations):\nhybrid: %v\nexact:  %v",
					len(hybridRes.Iterations), len(exactRes.Iterations),
					hybridRes.Best.Alloc, exactRes.Best.Alloc)
			}
			if len(hybridRes.Iterations) < len(exactRes.Iterations) {
				mu.Lock()
				saved = true
				mu.Unlock()
			}
			t.Logf("hybrid matched exact in %d/%d iterations", len(hybridRes.Iterations), len(exactRes.Iterations))
		})
	}
	t.Cleanup(func() {
		if !saved {
			t.Error("hybrid never terminated early on any registry scenario — the screen gate is dead")
		}
	})
}

// TestAnalyticBackendShape checks the closed-form backend's contract: a
// valid budget-exact allocation, one iteration, no CTMDP solution, and a
// positive analytic loss estimate on a lossy scenario.
func TestAnalyticBackendShape(t *testing.T) {
	cfg := quickCfg(t, "chain6")
	cfg.Method = solver.MethodAnalytic
	res, err := solver.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 1 {
		t.Fatalf("analytic ran %d iterations, want 1", len(res.Iterations))
	}
	if res.Best.Solution != nil || res.FinalSolution != nil {
		t.Fatal("analytic backend produced a CTMDP solution")
	}
	if res.Best.ModelLoss <= 0 {
		t.Fatalf("analytic loss estimate %v, want positive on chain6", res.Best.ModelLoss)
	}
	if err := res.Best.Alloc.Validate(res.Arch, cfg.Budget); err != nil {
		t.Fatal(err)
	}
	if res.BaselineLoss <= 0 {
		t.Fatal("baseline evaluation missing")
	}
}

// TestAnalyticDeterministic pins the closed-form path: two runs of the same
// configuration produce identical allocations (the greedy's ties must break
// deterministically).
func TestAnalyticDeterministic(t *testing.T) {
	cfg := quickCfg(t, "star6")
	cfg.Method = solver.MethodAnalytic
	a, err := solver.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = quickCfg(t, "star6")
	cfg.Method = solver.MethodAnalytic
	b, err := solver.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Best.Alloc, b.Best.Alloc) {
		t.Fatalf("analytic sizing not deterministic:\n%v\n%v", a.Best.Alloc, b.Best.Alloc)
	}
}

// TestAnalyticLossNearExact is the accuracy gate behind the speed/accuracy
// trade: across chain6 budget points the analytic sizing must not give up
// more than 5 percentage points of simulated loss probability relative to
// the exact sizing. The gap is one-sided — the gate bounds what the cheap
// model costs in quality; an analytic sizing that simulates better than
// exact's (which happens: the exact path quantises occupancy into coarse
// levels, the analytic model does not) is not an error. Both sized losses
// are normalised by the shared uniform baseline, which cancels the
// simulated traffic volume and leaves a loss-probability difference.
func TestAnalyticLossNearExact(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc, _ := scenario.Get("chain6")
	budgets := []int{sc.Budget, sc.Budget + 24, sc.Budget + 56}
	if raceEnabled {
		budgets = budgets[:1] // the full grid runs in the plain tier
	}
	for _, budget := range budgets {
		cfg := quickCfg(t, "chain6")
		cfg.Budget = budget
		cfg.Method = solver.MethodExact
		exactRes, err := solver.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg = quickCfg(t, "chain6")
		cfg.Budget = budget
		cfg.Method = solver.MethodAnalytic
		anaRes, err := solver.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if exactRes.BaselineLoss != anaRes.BaselineLoss {
			t.Fatalf("budget %d: baselines diverge (%d vs %d) — backends saw different systems",
				budget, exactRes.BaselineLoss, anaRes.BaselineLoss)
		}
		regret := float64(anaRes.Best.SimLoss-exactRes.Best.SimLoss) / float64(exactRes.BaselineLoss)
		t.Logf("budget %d: exact sized %d, analytic sized %d, baseline %d (regret %.3f)",
			budget, exactRes.Best.SimLoss, anaRes.Best.SimLoss, exactRes.BaselineLoss, regret)
		if regret > 0.05 {
			t.Errorf("budget %d: analytic gives up %.3f of loss probability vs exact (>5%%)", budget, regret)
		}
	}
}

// TestUnknownMethodUniformError pins the repo-wide unknown-method message:
// every layer (CLI exit 2, HTTP 400) surfaces this exact wording.
func TestUnknownMethodUniformError(t *testing.T) {
	cfg := quickCfg(t, "twobus")
	cfg.Method = "simulated-annealing"
	_, err := solver.Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	if !errors.Is(err, solver.ErrUnknownMethod) {
		t.Fatalf("error %v does not wrap solver.ErrUnknownMethod", err)
	}
	want := `unknown method "simulated-annealing" (valid methods: analytic | exact | hybrid | robust)`
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry the uniform message %q", err, want)
	}
}

// TestRegistryComplete pins the backend table: its four methods, each (and
// the empty default) accepted by CheckMethod.
func TestRegistryComplete(t *testing.T) {
	got := solver.Methods()
	want := []string{solver.MethodAnalytic, solver.MethodExact, solver.MethodHybrid, solver.MethodRobust}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("methods = %v, want %v", got, want)
	}
	for _, m := range append(want, "") {
		if err := solver.CheckMethod(m); err != nil {
			t.Fatalf("method %q: %v", m, err)
		}
	}
}
