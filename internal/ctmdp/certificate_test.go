package ctmdp_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/ctmdp"
	"socbuf/internal/scenario"
)

// leastOccupancy returns the least expected occupancy any measure of m
// holds, by policy iteration on the cost occ(s) over the model's exported
// description alone. It stops only when no action's reduced cost lies
// below −1e-12 of its terms' magnitude — a tighter form of the check
// certifyAnswer applies — so the gain it returns is a certified lower bound
// on every measure's occupancy, not a trusted number.
func leastOccupancy(t *testing.T, name string, m *ctmdp.Model) float64 {
	t.Helper()
	n := m.NumStates()
	states := make([]int, n)
	act := make([]int, n) // the action the policy plays in each state
	for s := range states {
		states[s] = s
		_, act[s] = m.VarStateAction(m.StateVars(s)[0])
	}
	one := []float64{1}
	policy := func(s int) ([]int, []float64) { return act[s : s+1], one }
	occ := func(s, _ int) float64 { return m.OccupancyUnits(s) }
	for evals := 0; evals < 100; evals++ {
		g, h := evaluate(t, name, m, states, policy, occ)
		changed := false
		for s := range act {
			best, bestR := act[s], 0.0
			for _, v := range m.StateVars(s) {
				_, a := m.VarStateAction(v)
				if r, mag := reducedCost(t, m, s, a, m.OccupancyUnits(s), g, h); r < bestR && r < -1e-12*mag {
					best, bestR = a, r
				}
			}
			changed = changed || best != act[s]
			act[s] = best
		}
		if !changed {
			return g
		}
	}
	t.Fatalf("%s: least-occupancy policy iteration did not converge", name)
	return 0
}

// leastOccupancies sums leastOccupancy over models.
func leastOccupancies(t *testing.T, name string, models []*ctmdp.Model) float64 {
	t.Helper()
	var least float64
	for i, m := range models {
		least += leastOccupancy(t, fmt.Sprintf("%s bus %d", name, i), m)
	}
	return least
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// certInstance is one generated capped program: a topology's bus models
// at a uniform allocation and their summed cap-free occupancy.
type certInstance struct {
	topo   scenario.Topology
	models []*ctmdp.Model
	free   float64
}

// certificateInstances builds the certificate test's programs: every
// family at fan-out 1 and 3–8 buses (27-state buses, cheap), and at fan-out
// 2 the six bus counts spread over the families, all at 3 units per buffer.
// Instances whose cap-free solve fails are skipped, logged and counted.
func certificateInstances(t *testing.T) (out []certInstance, skipped int) {
	t.Helper()
	type shape struct {
		kind          string
		fanOut, buses int
	}
	var shapes []shape
	kinds := []string{scenario.KindChain, scenario.KindStar, scenario.KindTree, scenario.KindMesh}
	for _, kind := range kinds {
		for buses := 3; buses <= 8; buses++ {
			shapes = append(shapes, shape{kind, 1, buses})
		}
	}
	for buses := 3; buses <= 8; buses++ {
		shapes = append(shapes, shape{kinds[(buses-3)%len(kinds)], 2, buses})
	}
	rng := rand.New(rand.NewSource(20261017))
	for _, sh := range shapes {
		topo := scenario.Topology{Kind: sh.kind, Buses: sh.buses, FanOut: sh.fanOut, Skew: 4, Seed: rng.Int63()}
		models := buildModels(t, topo, 3)
		// The cap-free occupancy, bus by bus as the methodology solves it.
		var free float64
		var freeErr error
		for _, m := range models {
			sol, err := ctmdp.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
			if err != nil {
				freeErr = err
				break
			}
			free += sol.OccupancyUsed
		}
		if freeErr != nil {
			skipped++
			t.Logf("%v: cap-free solve fails, skipped: %v", topo, freeErr)
			continue
		}
		out = append(out, certInstance{topo, models, free})
	}
	return out, skipped
}

// buildModels builds topo's bus models at a uniform allocation of units
// per buffer, as core builds them.
func buildModels(t *testing.T, topo scenario.Topology, units int) []*ctmdp.Model {
	t.Helper()
	a, err := topo.Build()
	if err != nil {
		t.Fatalf("%v: %v", topo, err)
	}
	a.InsertBridgeBuffers()
	return buildModelsAt(t, a, units*len(a.BufferIDs()))
}

// buildModelsAt builds the bus models of a buffered architecture at a
// uniform allocation of budget units.
func buildModelsAt(t *testing.T, a *arch.Architecture, budget int) []*ctmdp.Model {
	t.Helper()
	alloc, err := arch.UniformAllocation(a, budget)
	if err != nil {
		t.Fatal(err)
	}
	models, err := core.BuildSubsystemModels(a, alloc, core.Config{Arch: a, Budget: budget})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return models
}

// TestCappedSweepCertificate certifies every capped answer SolveJoint gives
// on generated topologies — chain, star, tree and mesh, fan-out 1–2, 3–8
// buses, models from core.BuildSubsystemModels at a uniform allocation —
// at the caps core's ladder uses (0.92, 0.96, 0.97 × the cap-free
// occupancy) and at half of it. Each answer must pass certifyJoint: every
// bus's measure optimal for cost + Price·occupancy by its reduced costs,
// a priced cap met exactly and no cap exceeded, at most one randomised
// state. Together these make the answer optimal by Lagrangian duality. An
// infeasible verdict is checked directly: the buses' least occupancies,
// each certified by leastOccupancy, must sum past the cap. Instances whose
// cap-free solve already fails are skipped and counted.
func TestCappedSweepCertificate(t *testing.T) {
	instances, skipped := certificateInstances(t)
	var solved, infeasible int
	for _, in := range instances {
		least := -1.0 // the buses' summed least occupancy, once needed
		for _, f := range []float64{0.92, 0.96, 0.97, 0.5} {
			name := fmt.Sprintf("%v cap %.2f", in.topo, f)
			cap := f * in.free
			got, err := ctmdp.SolveJoint(in.models, ctmdp.JointConfig{OccupancyCaps: []float64{cap}})
			if errors.Is(err, ctmdp.ErrInfeasible) {
				infeasible++
				if least < 0 {
					least = leastOccupancies(t, name, in.models)
				}
				if least <= cap*(1-1e-9) {
					t.Errorf("%s: reported infeasible, yet the buses can hold %g ≤ cap %g", name, least, cap)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			solved++
			certifyJoint(t, name, got, cap)
		}
	}
	t.Logf("capped answers certified: %d, infeasible caps confirmed: %d, instances skipped: %d",
		solved, infeasible, skipped)
	if solved == 0 {
		t.Fatal("no capped answer was certified")
	}
}
