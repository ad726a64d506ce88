package core

import (
	"math/rand"
	"testing"

	"socbuf/internal/ctmdp"
	"socbuf/internal/sim"
)

// TestPolicyArbiterPickZeroAlloc pins CTMDP arbitration at zero allocations
// per dispatch, both in states the policy visits (its own action row) and in
// states it does not (the longest-queue fallback): the simulator calls Pick
// on every dispatch of every CTMDP-arbitrated bus.
func TestPolicyArbiterPickZeroAlloc(t *testing.T) {
	m, err := ctmdp.NewModel("b", 4.5, []ctmdp.Client{
		{BufferID: "x", Lambda: 2, Levels: 2, UnitsPerLevel: 2, LossWeight: 1},
		{BufferID: "y", Lambda: 2, Levels: 2, UnitsPerLevel: 2, LossWeight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ctmdp.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	solved := sol.PerModel[0]
	// The same model under a policy that visits no state: every grant takes
	// the fallback.
	unvisited := &ctmdp.ModelSolution{Model: m, Policy: &ctmdp.Policy{
		Model:      m,
		ActionProb: make([][]float64, m.NumStates()),
		Visited:    make([]bool, m.NumStates()),
	}}
	for _, tc := range []struct {
		name    string
		ms      *ctmdp.ModelSolution
		visited bool
	}{{"visited", solved, true}, {"unvisited", unvisited, false}} {
		pa, err := newPolicyArbiter(tc.ms, []string{"x", "y"})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		views := []sim.ClientView{{BufferID: "x", Cap: 6}, {BufferID: "y", Cap: 6}}
		hits := 0
		// Every non-empty backlog pair, 1 to 6 packets past the caps too, so
		// the levels also clamp.
		pick := func() {
			for lx := 0; lx <= 7; lx++ {
				for ly := 0; ly <= 7; ly++ {
					if lx+ly == 0 {
						continue
					}
					views[0].Len, views[1].Len = lx, ly
					if got := pa.Pick(views, rng); got < 0 || views[got].Len == 0 {
						t.Fatalf("%s: Pick(%d, %d) = %d, want a non-empty client", tc.name, lx, ly, got)
					}
					if s, err := m.StateOf(pa.levels); err == nil && tc.ms.Policy.Visited[s] {
						hits++
					}
				}
			}
		}
		pick()
		if visited := hits > 0; visited != tc.visited {
			t.Fatalf("%s: %d picks landed on visited states", tc.name, hits)
		}
		if allocs := testing.AllocsPerRun(50, pick); allocs != 0 {
			t.Fatalf("%s: policyArbiter.Pick allocates %.0f objects per 63 picks, want 0", tc.name, allocs)
		}
	}
}
