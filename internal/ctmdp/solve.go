package ctmdp

import (
	"errors"
	"fmt"

	"socbuf/internal/lp"
)

// JointConfig parameterises SolveJoint.
type JointConfig struct {
	// OccupancyCap bounds the total expected buffer occupancy (in physical
	// units) across all subsystems: Σ_m Σ_(s,a) occ_m(s)·x_m(s,a) ≤ cap.
	// This is the constraint that links the subsystem blocks into one LP —
	// the paper's "solve all the equations in one go". Zero or negative
	// disables it (the blocks then decouple mathematically but are still
	// solved in a single program).
	OccupancyCap float64
	// RefineStationary recomputes each solution's stationary distribution
	// from its policy-induced chain after the LP solve (linalg.Stationary
	// picks the solver by state-space size). This tightens the LP's
	// roundoff-level state probabilities.
	RefineStationary bool
	// WarmBasis optionally seeds the joint LP with each model's final
	// simplex basis from a previous solve of the same balance system (the
	// Basis of a single-model JointSolution). The canonical use is
	// re-solving the same models under a new OccupancyCap from their cached
	// cap-free optima: reconstructing the basis set restores those solves'
	// reduced costs, so the new cap row needs only a handful of dual pivots
	// instead of a full two-phase solve (lp.Problem.WarmBasis). A seed can
	// never change the optimum reached — the LP layer falls back to the cold
	// two-phase solve whenever the basis does not certify — though on
	// degenerate programs it may select a different optimal vertex of equal
	// objective. Ignored unless every model has a shape-matching entry.
	WarmBasis [][]lp.BasicRef
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
	// Iters counts simplex pivots.
	Iters int
	// Basis is the assembled LP's final simplex basis (layout-independent;
	// see lp.Solution.Basis). For a single-model solve it is the currency of
	// JointConfig.WarmBasis: hand it back to re-solve the same balance
	// system under a different occupancy cap with a few dual pivots.
	Basis []lp.BasicRef
}

// ErrInfeasible is returned when the assembled LP has no feasible point
// (cannot happen for valid models unless the occupancy cap is below the
// minimum achievable expected occupancy).
var ErrInfeasible = errors.New("ctmdp: LP infeasible")

// SolveJoint assembles and solves the occupation-measure LP of the given
// subsystem models as one program.
func SolveJoint(models []*Model, cfg JointConfig) (*JointSolution, error) {
	if len(models) == 0 {
		return nil, errors.New("ctmdp: no models")
	}
	prob, offsets, err := assembleJoint(models, cfg)
	if err != nil {
		return nil, err
	}

	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("ctmdp: simplex: %w", err)
	}
	return extractJoint(models, offsets, cfg, sol)
}

// assembleJoint builds the occupation-measure LP of the models under cfg:
// per-model balance and normalisation rows, the warm basis, and — appended
// LAST, as lp.Problem.WarmBasis requires — the linking occupancy row when
// cfg.OccupancyCap > 0. It returns the problem and the per-model variable
// offsets.
func assembleJoint(models []*Model, cfg JointConfig) (*lp.Problem, []int, error) {
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

	// Warm basis: the concatenated per-model bases, accepted only when every
	// model has a shape-matching entry (a partial seed would crash an
	// inconsistent start and always fall back cold — wasted work). Rows were
	// appended per model as numStates balance rows plus one normalisation
	// row, which fixes the offsets; the cap row, when present, comes after
	// every per-model block, as lp.Problem.WarmBasis requires of constraints
	// the donor basis has not seen.
	if len(cfg.WarmBasis) == len(models) {
		var basis []lp.BasicRef
		rowOff := 0
		for i, m := range models {
			rows := m.numStates + 1
			if len(cfg.WarmBasis[i]) != rows {
				basis = nil
				break
			}
			for _, ref := range cfg.WarmBasis[i] {
				if ref.Var >= 0 {
					ref.Var += offsets[i]
				} else {
					ref.Row += rowOff
				}
				basis = append(basis, ref)
			}
			rowOff += rows
		}
		prob.WarmBasis = basis
	}

	// Linking occupancy row: each variable's state occupancy in physical
	// units.
	if cfg.OccupancyCap > 0 {
		row := make([]float64, total)
		for i, m := range models {
			for v, sv := range m.vars {
				row[offsets[i]+v] = m.OccupancyUnits(sv.state)
			}
		}
		if err := prob.AddConstraint(row, lp.LE, cfg.OccupancyCap); err != nil {
			return nil, nil, err
		}
	}
	return prob, offsets, nil
}

// extractJoint maps the LP outcome back to the model layer: status check,
// per-model occupation measures, policies, and the optional stationary
// refinement pass.
func extractJoint(models []*Model, offsets []int, cfg JointConfig, sol *lp.Solution) (*JointSolution, error) {
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, ErrInfeasible
	default:
		return nil, fmt.Errorf("ctmdp: unexpected LP status %v", sol.Status)
	}

	out := &JointSolution{TotalLossRate: sol.Objective, Iters: sol.Iters, Basis: sol.Basis}
	var occUsed float64
	for i, m := range models {
		ms := &ModelSolution{Model: m, X: make([]float64, m.NumVars())}
		copy(ms.X, sol.X[offsets[i]:offsets[i]+m.NumVars()])
		ms.StateProb = make([]float64, m.numStates)
		for v, sv := range m.vars {
			ms.StateProb[sv.state] += ms.X[v]
			occUsed += m.OccupancyUnits(sv.state) * ms.X[v]
			ms.LossRate += m.CostRate(sv.state, sv.action) * ms.X[v]
		}
		ms.Policy = extractPolicy(m, ms.X)
		out.PerModel = append(out.PerModel, ms)
	}
	out.OccupancyUsed = occUsed
	if cfg.RefineStationary {
		out.TotalLossRate, out.OccupancyUsed = 0, 0
		for _, ms := range out.PerModel {
			if _, err := ms.RefineStationary(nil); err != nil {
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
