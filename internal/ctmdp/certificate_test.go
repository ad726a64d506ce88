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
	"socbuf/internal/lp"
	"socbuf/internal/scenario"
)

// program is one model's occupation-measure LP, assembled here from the
// model's exported description alone so it referees SolveJoint rather than
// sharing its assembly: per-variable cost and occupancy, and the balance
// rows (one per state) over the model's variables.
type program struct {
	cost, occ []float64
	balance   [][]float64
}

func programOf(t *testing.T, m *ctmdp.Model) program {
	t.Helper()
	n := m.NumVars()
	p := program{cost: make([]float64, n), occ: make([]float64, n), balance: make([][]float64, m.NumStates())}
	for s := range p.balance {
		p.balance[s] = make([]float64, n)
	}
	for v := 0; v < n; v++ {
		s, a := m.VarStateAction(v)
		p.cost[v] = m.CostRate(s, a)
		p.occ[v] = m.OccupancyUnits(s)
		targets, rates := moves(t, m, s, a)
		var exit float64
		for i, tg := range targets {
			p.balance[tg][v] += rates[i]
			exit += rates[i]
		}
		p.balance[s][v] -= exit
	}
	return p
}

// linked assembles the capped joint LP — every block's balance and
// normalisation rows plus the occupancy row — and solves it cold.
func linked(progs []program, cap float64) (*lp.Solution, error) {
	total := 0
	for _, p := range progs {
		total += len(p.cost)
	}
	prob := lp.NewProblem(total)
	capRow := make([]float64, total)
	off := 0
	for _, p := range progs {
		n := len(p.cost)
		copy(prob.Objective[off:], p.cost)
		copy(capRow[off:], p.occ)
		for _, bal := range p.balance {
			row := make([]float64, total)
			copy(row[off:], bal)
			if err := prob.AddConstraint(row, lp.EQ, 0); err != nil {
				return nil, err
			}
		}
		norm := make([]float64, total)
		for v := 0; v < n; v++ {
			norm[off+v] = 1
		}
		if err := prob.AddConstraint(norm, lp.EQ, 1); err != nil {
			return nil, err
		}
		off += n
	}
	if err := prob.AddConstraint(capRow, lp.LE, cap); err != nil {
		return nil, err
	}
	return lp.Solve(prob)
}

// alone solves one block with objective cost, returning the optimum.
func alone(p program, cost []float64) (float64, error) {
	prob := lp.NewProblem(len(cost))
	copy(prob.Objective, cost)
	for _, bal := range p.balance {
		if err := prob.AddConstraint(bal, lp.EQ, 0); err != nil {
			return 0, err
		}
	}
	norm := make([]float64, len(cost))
	for v := range norm {
		norm[v] = 1
	}
	if err := prob.AddConstraint(norm, lp.EQ, 1); err != nil {
		return 0, err
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("block solve %v", sol.Status)
	}
	return sol.Objective, nil
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
// occupancy) and at half of it. Each answer must carry its own certificate:
//
//	(b) each bus's measure is optimal for cost + Price·occupancy, checked by
//	    re-solving that bus alone with that cost;
//	(c) when Price > 0, total occupancy equals the cap within 1e-9 relative;
//	(d) at most one state is randomised.
//
// (b) and (c) make the answer optimal by Lagrangian duality. It must also
// (a) match the objective of the linked joint LP assembled here to 1e-8
// relative and agree with it on infeasibility. A referee that reaches a
// lower objective fails the test; any other disagreement under a valid
// certificate convicts the referee, not the answer: it is logged and
// counted. An infeasible verdict is checked directly: the buses' minimum
// occupancies must sum past the cap. Instances whose cap-free solve already
// fails are skipped and counted.
func TestCappedSweepCertificate(t *testing.T) {
	instances, skipped := certificateInstances(t)
	var solved, infeasible, refereeWrong int
	for _, in := range instances {
		topo, models, free := in.topo, in.models, in.free
		progs := make([]program, len(models))
		for i, m := range models {
			progs[i] = programOf(t, m)
		}
		least := -1.0 // the buses' summed minimum occupancy, once needed
		for _, f := range []float64{0.92, 0.96, 0.97, 0.5} {
			name := fmt.Sprintf("%v cap %.2f", topo, f)
			cap := f * free
			got, err := ctmdp.SolveJoint(models, ctmdp.JointConfig{OccupancyCaps: []float64{cap}})
			ref, refErr := linked(progs, cap)
			refInfeasible := refErr == nil && ref.Status == lp.Infeasible
			if errors.Is(err, ctmdp.ErrInfeasible) {
				infeasible++
				if least < 0 {
					least = 0
					for _, p := range progs {
						v, err := alone(p, p.occ)
						if err != nil {
							t.Fatalf("%s: minimum occupancy: %v", name, err)
						}
						least += v
					}
				}
				if least <= cap*(1-1e-9) {
					t.Errorf("%s: reported infeasible, yet the buses can hold %g ≤ cap %g", name, least, cap)
				}
				if !refInfeasible {
					refereeWrong++
					t.Logf("%s: referee disagrees: it finds %v (%v) where the buses' minimum occupancy %g exceeds the cap %g",
						name, statusOf(ref), refErr, least, cap)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			solved++

			// (b) each bus optimal for cost + Price·occupancy alone.
			for i, ms := range got.PerModel {
				p := progs[i]
				priced := make([]float64, len(p.cost))
				var val float64
				for v := range priced {
					priced[v] = p.cost[v] + got.Price*p.occ[v]
					val += priced[v] * ms.X[v]
				}
				best, err := alone(p, priced)
				if err != nil {
					t.Fatalf("%s: bus %d re-solve: %v", name, i, err)
				}
				if val > best+1e-8*math.Max(1, math.Abs(best)) {
					t.Errorf("%s: bus %d measure costs %.12g at price %g, the bus alone reaches %.12g",
						name, i, val, got.Price, best)
				}
			}
			// (c) a priced cap binds.
			if got.Price < 0 {
				t.Errorf("%s: negative price %g", name, got.Price)
			}
			if got.Price > 0 && !relClose(got.OccupancyUsed, cap, 1e-9) {
				t.Errorf("%s: price %g but occupancy %.12g ≠ cap %.12g", name, got.Price, got.OccupancyUsed, cap)
			}
			if got.OccupancyUsed > cap*(1+1e-9) {
				t.Errorf("%s: occupancy %.12g over the cap %.12g", name, got.OccupancyUsed, cap)
			}
			// (d) at most one randomised state.
			randomised := 0
			for _, ms := range got.PerModel {
				randomised += len(ms.Policy.KSwitching().Randomised)
			}
			if randomised > 1 {
				t.Errorf("%s: %d randomised states", name, randomised)
			}
			// (a) the linked joint LP agrees. A referee point that costs less
			// would contradict the certificate, so that disagreement fails.
			switch {
			case refErr == nil && ref.Status == lp.Optimal && relClose(ref.Objective, got.TotalLossRate, 1e-8):
			case refErr == nil && ref.Status == lp.Optimal && ref.Objective < got.TotalLossRate:
				t.Errorf("%s: referee reaches %.12g below the certified %.12g", name, ref.Objective, got.TotalLossRate)
			default:
				refereeWrong++
				t.Logf("%s: referee disagrees: %v (%v), objective %.12g vs certified %.12g",
					name, statusOf(ref), refErr, objectiveOf(ref), got.TotalLossRate)
			}
		}
	}
	t.Logf("capped answers certified: %d, infeasible caps confirmed: %d, referee disagreements: %d, instances skipped: %d",
		solved, infeasible, refereeWrong, skipped)
	if solved == 0 {
		t.Fatal("no capped answer was certified")
	}
}

func statusOf(s *lp.Solution) string {
	if s == nil {
		return "no solution"
	}
	return s.Status.String()
}

func objectiveOf(s *lp.Solution) float64 {
	if s == nil || s.Status != lp.Optimal {
		return math.NaN()
	}
	return s.Objective
}
