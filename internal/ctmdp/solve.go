package ctmdp

import (
	"errors"
	"fmt"
	"math"

	"socbuf/internal/lp"
)

// JointConfig parameterises SolveJoint.
type JointConfig struct {
	// OccupancyCap bounds the total expected buffer occupancy (in physical
	// units) across all subsystems: Σ_m Σ_(s,a) occ_m(s)·x_m(s,a) ≤ cap.
	// This is the constraint that links the subsystem blocks — the paper's
	// "solve all the equations in one go". SolveJoint meets it by pricing
	// occupancy and solving each subsystem alone. Zero or negative disables
	// it (the blocks then decouple and are solved as one block-diagonal
	// program).
	OccupancyCap float64
	// RefineStationary recomputes each solution's stationary distribution
	// from its policy-induced chain after the LP solve (linalg.Stationary
	// picks the solver by state-space size). This tightens the LP's
	// roundoff-level state probabilities.
	RefineStationary bool
}

// ModelSolution is the solved occupation measure of one subsystem plus the
// derived quantities the rest of the pipeline consumes.
type ModelSolution struct {
	Model *Model
	// X holds the optimal occupation measure aligned with the model's
	// internal (state, action) enumeration.
	X []float64
	// StateProb is the stationary state distribution Σ_a x(s,a).
	StateProb []float64
	// LossRate is the model's weighted loss rate at the optimum.
	LossRate float64
	// Policy is the optimal stationary (possibly randomised) arbitration.
	Policy *Policy
}

// JointSolution is the result of SolveJoint.
type JointSolution struct {
	PerModel []*ModelSolution
	// TotalLossRate is the summed weighted loss rate (the LP objective).
	TotalLossRate float64
	// OccupancyUsed is the expected total occupancy in units at the optimum.
	OccupancyUsed float64
	// CapBinding reports whether the occupancy cap held with equality
	// (within tolerance) — when true the K-switching theorem predicts
	// randomisation.
	CapBinding bool
	// Price is the occupancy price λ* of a capped solve: each model's
	// measure minimises its loss rate + Price × its occupancy on its own,
	// which certifies the capped optimum. Zero when the cap is slack or
	// absent.
	Price float64
	// Iters counts simplex pivots.
	Iters int
}

// ErrInfeasible is returned when the program has no feasible point (cannot
// happen for valid models unless the occupancy cap is below the minimum
// achievable expected occupancy).
var ErrInfeasible = errors.New("ctmdp: LP infeasible")

// SolveJoint solves the occupation-measure LP of the given subsystem models.
//
// Without a cap the models decouple; they are assembled into one
// block-diagonal program and solved in a single simplex run.
//
// With a cap the single linking row makes Lagrangian duality exact: the
// capped optimum is a set of per-model measures, each minimising loss rate
// + λ·occupancy alone, at the price λ* where total occupancy meets the cap.
// SolveJoint finds λ* by sweeping the price over per-model parametric LPs
// (lp.Parametric), never assembling the linking row. Every model starts at
// its cap-free optimum; while total occupancy exceeds the cap, the model
// with the smallest next breakpoint (ties to the lowest index) pivots once.
// The step that takes the total to or below the cap is mixed with that
// model's previous vertex so the cap holds with equality, which randomises
// at most one state of one model (K-switching). When no model can lower its
// occupancy any further the cap is infeasible (ErrInfeasible).
func SolveJoint(models []*Model, cfg JointConfig) (*JointSolution, error) {
	if len(models) == 0 {
		return nil, errors.New("ctmdp: no models")
	}
	var out *JointSolution
	var err error
	if cfg.OccupancyCap > 0 {
		out, err = sweepCap(models, cfg.OccupancyCap, sweepLimit(models))
	} else {
		out, err = solveBlocks(models)
	}
	if err != nil {
		return nil, err
	}
	if cfg.RefineStationary {
		out.TotalLossRate, out.OccupancyUsed = 0, 0
		for _, ms := range out.PerModel {
			if _, err := ms.RefineStationary(); err != nil {
				return nil, fmt.Errorf("ctmdp: model %q: %w", ms.Model.Bus, err)
			}
			out.TotalLossRate += ms.LossRate
			for s, p := range ms.StateProb {
				out.OccupancyUsed += ms.Model.OccupancyUnits(s) * p
			}
		}
	}
	// CapBinding reflects the occupancy actually reported — after
	// refinement, that is the refined value.
	if cfg.OccupancyCap > 0 && out.OccupancyUsed >= cfg.OccupancyCap*(1-1e-6) {
		out.CapBinding = true
	}
	return out, nil
}

// solveBlocks solves cap-free models as one block-diagonal program.
func solveBlocks(models []*Model) (*JointSolution, error) {
	prob, offsets, err := assembleJoint(models)
	if err != nil {
		return nil, err
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("ctmdp: simplex: %w", err)
	}
	if err := statusErr(sol.Status); err != nil {
		return nil, err
	}
	xs := make([][]float64, len(models))
	for i, m := range models {
		xs[i] = sol.X[offsets[i] : offsets[i]+m.NumVars()]
	}
	return newJointSolution(models, xs, sol.Iters), nil
}

// sweepCap solves the capped program bus by bus, as SolveJoint describes.
// limit bounds the sweep's pivots; past it the sweep fails with
// lp.ErrIterationLimit (each cold per-model solve has lp's own limit).
func sweepCap(models []*Model, cap float64, limit int) (*JointSolution, error) {
	buses := make([]*lp.Parametric, len(models))
	occRows := make([][]float64, len(models))
	xs := make([][]float64, len(models))
	occ := make([]float64, len(models))
	var total float64
	iters := 0
	for i, m := range models {
		prob, _, err := assembleJoint([]*Model{m})
		if err != nil {
			return nil, err
		}
		occRows[i] = make([]float64, m.NumVars())
		for v, sv := range m.vars {
			occRows[i][v] = m.OccupancyUnits(sv.state)
		}
		pc, sol, err := lp.NewParametric(prob, occRows[i])
		if err != nil {
			return nil, fmt.Errorf("ctmdp: simplex: %w", err)
		}
		if err := statusErr(sol.Status); err != nil {
			return nil, err
		}
		buses[i], xs[i] = pc, sol.X
		occ[i] = dot(occRows[i], sol.X)
		total += occ[i]
		iters += sol.Iters
	}

	price := 0.0
	for steps := 0; total > cap; steps++ {
		if steps >= limit {
			return nil, fmt.Errorf("ctmdp: occupancy price sweep: %w", lp.ErrIterationLimit)
		}
		k, next := -1, math.Inf(1)
		for i, pc := range buses {
			if l := pc.Next(); l < next {
				k, next = i, l
			}
		}
		if k < 0 {
			return nil, ErrInfeasible // no model can lower its occupancy
		}
		sol, err := buses[k].Step()
		if err != nil {
			return nil, fmt.Errorf("ctmdp: occupancy price sweep: %w", err)
		}
		iters++
		price = next
		after := dot(occRows[k], sol.X)
		rest := total - occ[k]
		if rest+after <= cap {
			// Mix the vertices before and after the step so the total
			// meets the cap exactly: w is the previous vertex's weight.
			w := (cap - rest - after) / (occ[k] - after)
			for j, v := range sol.X {
				sol.X[j] = w*xs[k][j] + (1-w)*v
			}
			xs[k] = sol.X
			break
		}
		xs[k], occ[k], total = sol.X, after, rest+after
	}
	out := newJointSolution(models, xs, iters)
	out.Price = price
	return out, nil
}

// sweepLimit bounds a capped sweep's pivots: the pivot limit lp gives a
// cold solve of each model, summed.
func sweepLimit(models []*Model) int {
	n := 0
	for _, m := range models {
		rows := m.numStates + 1
		n += 200 * (rows + m.NumVars() + rows + 10)
	}
	return n
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// statusErr maps a non-optimal LP status to the package's error.
func statusErr(s lp.Status) error {
	switch s {
	case lp.Optimal:
		return nil
	case lp.Infeasible:
		return ErrInfeasible
	default:
		return fmt.Errorf("ctmdp: unexpected LP status %v", s)
	}
}

// assembleJoint builds the cap-free occupation-measure LP of the models:
// per-model balance and normalisation rows over one variable layout. It
// returns the problem and the per-model variable offsets.
func assembleJoint(models []*Model) (*lp.Problem, []int, error) {
	// Variable layout: models in order, each contributing NumVars variables.
	offsets := make([]int, len(models))
	total := 0
	for i, m := range models {
		offsets[i] = total
		total += m.NumVars()
	}
	prob := lp.NewProblem(total)

	// Objective: weighted loss rates.
	for i, m := range models {
		for v, sv := range m.vars {
			prob.Objective[offsets[i]+v] = m.CostRate(sv.state, sv.action)
		}
	}

	// Balance rows per model: Σ_(s,a) x(s,a)·q(j|s,a) = 0 for every state j.
	// One row per model is redundant; the simplex phase 1 tolerates it.
	for i, m := range models {
		rows := make([][]float64, m.numStates)
		for j := range rows {
			rows[j] = make([]float64, total)
		}
		for v, sv := range m.vars {
			col := offsets[i] + v
			var exit float64
			m.transitions(sv.state, sv.action, func(target int, rate float64) {
				rows[target][col] += rate
				exit += rate
			})
			rows[sv.state][col] -= exit
		}
		for j := range rows {
			if err := prob.AddConstraint(rows[j], lp.EQ, 0); err != nil {
				return nil, nil, err
			}
		}
		// Normalisation: the model's measure is a probability distribution.
		norm := make([]float64, total)
		for v := range m.vars {
			norm[offsets[i]+v] = 1
		}
		if err := prob.AddConstraint(norm, lp.EQ, 1); err != nil {
			return nil, nil, err
		}
	}
	return prob, offsets, nil
}

// newJointSolution wraps per-model occupation measures, each aligned with
// its model's enumeration, as a JointSolution: state distributions, loss
// rates, policies and the totals. The totals are running sums over every
// variable in layout order, so TotalLossRate equals the block program's
// objective to the bit.
func newJointSolution(models []*Model, xs [][]float64, iters int) *JointSolution {
	out := &JointSolution{Iters: iters}
	for i, m := range models {
		ms := &ModelSolution{Model: m, X: make([]float64, m.NumVars())}
		copy(ms.X, xs[i])
		ms.StateProb = make([]float64, m.numStates)
		for v, sv := range m.vars {
			cost := m.CostRate(sv.state, sv.action)
			ms.StateProb[sv.state] += ms.X[v]
			out.OccupancyUsed += m.OccupancyUnits(sv.state) * ms.X[v]
			out.TotalLossRate += cost * ms.X[v]
			ms.LossRate += cost * ms.X[v]
		}
		ms.Policy = extractPolicy(m, ms.X)
		out.PerModel = append(out.PerModel, ms)
	}
	return out
}

// OccupancyDistribution returns P(level_c = k) for k = 0..Levels of client c
// under the solved stationary measure.
func (ms *ModelSolution) OccupancyDistribution(c int) []float64 {
	m := ms.Model
	dist := make([]float64, m.Clients[c].Levels+1)
	for s, p := range ms.StateProb {
		dist[m.Level(s, c)] += p
	}
	return dist
}

// Throughput returns the service completion rate of client c:
// μ · Σ_s x(s, a=c).
func (ms *ModelSolution) Throughput(c int) float64 {
	var grant float64
	for v, sv := range ms.Model.vars {
		if sv.action == c {
			grant += ms.X[v]
		}
	}
	return ms.Model.ServiceRate * grant
}

// FullProbability returns P(level_c = Levels), the model's estimate that the
// client's buffer is full — the boundary scalar upstream subsystems consume
// as DownstreamFullProb.
func (ms *ModelSolution) FullProbability(c int) float64 {
	dist := ms.OccupancyDistribution(c)
	return dist[len(dist)-1]
}
