package ctmdp

import (
	"math"
	"strings"
	"testing"
)

func solvedTwoClient(t *testing.T, cfg JointConfig) *ModelSolution {
	t.Helper()
	m := mustModel(t, "b", 4.5, []Client{
		{BufferID: "x", Lambda: 2.0, Levels: 2, UnitsPerLevel: 5, LossWeight: 1},
		{BufferID: "y", Lambda: 2.0, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	})
	return mustSolve(t, []*Model{m}, cfg).PerModel[0]
}

func TestPolicyRowsAreDistributions(t *testing.T) {
	ms := solvedTwoClient(t, JointConfig{})
	p := ms.Policy
	for s := 0; s < ms.Model.NumStates(); s++ {
		if !p.Visited[s] {
			continue
		}
		var sum float64
		for _, pr := range p.ActionProb[s] {
			if pr < -1e-9 {
				t.Fatalf("negative action probability at state %d", s)
			}
			sum += pr
		}
		// The all-empty state is idle: zero mass on grants.
		allEmpty := true
		for c := range ms.Model.Clients {
			if ms.Model.Level(s, c) > 0 {
				allEmpty = false
			}
		}
		if allEmpty {
			if sum > 1e-9 {
				t.Fatalf("idle state has grant mass %v", sum)
			}
			continue
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("action probabilities at state %d sum to %v", s, sum)
		}
	}
}

func TestPolicyNeverGrantsEmptyClient(t *testing.T) {
	ms := solvedTwoClient(t, JointConfig{})
	p := ms.Policy
	m := ms.Model
	for s := 0; s < m.NumStates(); s++ {
		for c, pr := range p.ActionProb[s] {
			if pr > 1e-9 && m.Level(s, c) == 0 {
				t.Fatalf("state %d grants empty client %d with prob %v", s, c, pr)
			}
		}
	}
}

func TestPolicyActionFallback(t *testing.T) {
	ms := solvedTwoClient(t, JointConfig{})
	p := ms.Policy
	// Clamping: levels beyond the cap clamp to the cap.
	dist, err := p.Action([]int{99, 0})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, pr := range dist {
		sum += pr
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("clamped action distribution sums to %v", sum)
	}
	// Errors.
	if _, err := p.Action([]int{1}); err == nil {
		t.Fatal("wrong level vector length accepted")
	}
	if _, err := p.Action([]int{-1, 0}); err == nil {
		t.Fatal("negative level accepted")
	}
}

func TestPolicyActionUnvisitedLongestQueue(t *testing.T) {
	// Build a tiny model and a policy with no visited states by hand.
	m := mustModel(t, "b", 1, []Client{
		{BufferID: "x", Lambda: 1, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
		{BufferID: "y", Lambda: 1, Levels: 2, UnitsPerLevel: 1, LossWeight: 1},
	})
	p := extractPolicy(m, make([]float64, m.NumVars())) // all-zero measure
	dist, err := p.Action([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if dist[1] != 1 || dist[0] != 0 {
		t.Fatalf("fallback should grant the longest queue: %v", dist)
	}
	empty, err := p.Action([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if empty[0] != 0 || empty[1] != 0 {
		t.Fatalf("fallback at empty state should idle: %v", empty)
	}
}

func TestKSwitchingUnconstrainedNearlyDeterministic(t *testing.T) {
	ms := solvedTwoClient(t, JointConfig{})
	sw := ms.Policy.KSwitching()
	// A vertex solution of the unconstrained LP randomises in at most one
	// state per model (one extra basic variable beyond one per state).
	if len(sw.Randomised) > 1 {
		t.Fatalf("unconstrained policy randomises in %d states: %s", len(sw.Randomised), sw)
	}
}

func TestKSwitchingConstrainedBounded(t *testing.T) {
	free := solvedTwoClient(t, JointConfig{})
	_ = free
	ms := solvedTwoClient(t, JointConfig{OccupancyCaps: []float64{4.0}})
	sw := ms.Policy.KSwitching()
	// Feinberg 2002: one linking constraint adds at most one randomised
	// state (plus the one vertex slack) — allow 2.
	if len(sw.Randomised) > 2 {
		t.Fatalf("constrained policy randomises in %d states: %s", len(sw.Randomised), sw)
	}
	// Base policy must cover every visited non-empty state.
	for s, v := range ms.Policy.Visited {
		if !v {
			continue
		}
		nonEmpty := false
		for c := range ms.Model.Clients {
			if ms.Model.Level(s, c) > 0 {
				nonEmpty = true
			}
		}
		if nonEmpty && sw.BasePolicy[s] < 0 {
			t.Fatalf("visited non-empty state %d has no base action", s)
		}
	}
}

func TestSwitchingString(t *testing.T) {
	ms := solvedTwoClient(t, JointConfig{OccupancyCaps: []float64{4.0}})
	s := ms.Policy.KSwitching().String()
	if !strings.Contains(s, "randomised states:") {
		t.Fatalf("switching string %q", s)
	}
}
