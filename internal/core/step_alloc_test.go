package core_test

import (
	"context"
	"testing"

	"socbuf/internal/core"
	"socbuf/internal/scenario"
)

// TestExactStepAllocs gates the allocations of one exact Step of the
// chain6 scenario, run without a cache on one worker, simulation included:
// the first Step of a fresh stepper, so every run does the same work. It
// read 3,355–3,356 allocations. Before the stepper routed its architecture
// once per run, models shared their state spaces, policy iteration filled
// one matrix per solve and policies kept their rows in one array, it read
// 14,333–14,334. The count repeats to within one, so a change that
// allocates again fails here rather than on noisy wall time.
func TestExactStepAllocs(t *testing.T) {
	sc, ok := scenario.Get("chain6")
	if !ok {
		t.Fatal("chain6 scenario missing")
	}
	a, err := sc.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := core.Config{Arch: a, Budget: sc.Budget, Iterations: 1, Seeds: []int64{1}, Horizon: 300, WarmUp: 30, Workers: 1}
	const runs = 5
	steppers := make([]*core.Stepper, runs+1) // AllocsPerRun runs once more to warm up
	for i := range steppers {
		if steppers[i], err = core.NewStepper(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := steppers[next].Step(ctx); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 3400 {
		t.Errorf("one exact chain6 Step: %v allocs, want at most 3400", allocs)
	}
}
