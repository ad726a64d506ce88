package ctmdp

import (
	"errors"
	"fmt"
	"math"

	"socbuf/internal/linalg"
)

// Policy iteration on one model. Every model idles only in the all-empty
// state 0 and arrivals never stop, so every deterministic policy drains to
// state 0 and is unichain: its evaluation system
//
//	g − Σ_j q(j|s,a)·(h_j − h_s) = c(s,a)   for every state s, a = policy(s),
//
// with h_0 = 0 is non-singular. Its unknowns u = (g, h_1, …, h_{n−1}) share
// one index space with the states: column 0 carries the gain g, column j ≥ 1
// the bias h_j. The same matrix A gives the stationary distribution by the
// transposed solve Aᵀπ = e₀: row 0 of Aᵀ is the normalisation Σπ = 1, row
// j ≥ 1 the balance of state j.

const (
	// piTol: an alternative action replaces the policy's only when its
	// advantage is below −piTol times the magnitude of the terms it is
	// computed from, so roundoff never switches an action. The perturbed
	// costs differ by far more between actions of one state.
	piTol = 1e-14
	// maxEvals bounds one policy iteration's evaluations. Howard's method
	// converges in a handful; a run that reaches the bound is cycling on
	// roundoff and fails.
	maxEvals = 100
	// breakTol: an alternative counts as lowering the occupancy only when
	// its occupancy advantage is below −breakTol, so a roundoff-level
	// advantage never makes a breakpoint.
	breakTol = 1e-9
	// certTol scales the dual certificate's tolerances (certify).
	certTol = 1e-9
)

// ErrSweepLimit is returned when the occupancy price sweep takes more steps
// than sweepLimit allows. It cannot happen on a valid program: the bound is
// far above what a sweep needs, so reaching it means the sweep cycles.
var ErrSweepLimit = errors.New("ctmdp: occupancy price sweep exceeded its step limit")

// perturbedCosts returns the model's cost rate per occupation variable plus
// a deterministic, negligible tie-break, objScale·1e-9/n·(v+1) on variable
// v of n: among actions that cost the same, the lower-indexed one wins.
// Answers report losses at the unperturbed costs.
func perturbedCosts(m *Model) []float64 {
	n := len(m.vars)
	cost := make([]float64, n)
	objScale := 0.0
	for v, sv := range m.vars {
		cost[v] = m.CostRate(sv.state, sv.action)
		objScale = math.Max(objScale, math.Abs(cost[v]))
	}
	if objScale == 0 {
		objScale = 1
	}
	perturb := objScale * 1e-9 / float64(n)
	for v := range cost {
		cost[v] += float64(perturb * float64(v+1))
	}
	return cost
}

// longestQueue returns the policy that grants the fullest client, ties to
// the lowest index, and idles in the all-empty state: the arbiter the
// simulator falls back to, and policy iteration's start.
func longestQueue(m *Model) []int {
	act := make([]int, m.numStates)
	for s, vs := range m.varsByState {
		act[s] = vs[0]
		best := 0
		for _, v := range vs {
			if a := m.vars[v].action; a >= 0 && m.Level(s, a) > best {
				act[s], best = v, m.Level(s, a)
			}
		}
	}
	return act
}

// evalRow writes variable v's row of the evaluation matrix into row, which
// must be zero.
func (m *Model) evalRow(v int, row []float64) {
	s, a := m.vars[v].state, m.vars[v].action
	row[0] = 1
	var exit float64
	m.transitions(s, a, func(t int, rate float64) {
		if t != 0 {
			row[t] -= rate
		}
		exit += rate
	})
	if s != 0 {
		row[s] += exit
	}
}

// evaluate overwrites a with the evaluation matrix of policy act and
// factorises it in place, so one n×n matrix serves a whole policy
// iteration: the factors live in a until the next evaluation.
func (m *Model) evaluate(a *linalg.Matrix, act []int) (*linalg.LU, error) {
	clear(a.Data)
	for s, v := range act {
		m.evalRow(v, a.Row(s))
	}
	f, err := linalg.FactorInPlace(a)
	if err != nil {
		return nil, fmt.Errorf("ctmdp: bus %q: policy evaluation: %w", m.Bus, err)
	}
	return f, nil
}

// bias reads h_s off u (h_0 = 0).
func bias(u []float64, s int) float64 {
	if s == 0 {
		return 0
	}
	return u[s]
}

// served returns the state a transfer under variable v at state s leaves:
// the granted client's level drops by one.
func (m *Model) served(s, v int) int { return s - m.strides[m.vars[v].action] }

// improve moves every state to its best action under the cost biases u,
// keeping the current action unless an alternative is strictly better
// beyond roundoff, and reports whether any state switched. Actions of one
// state differ only in which client the transfer drains, so an
// alternative's advantage is its cost difference plus μ times the bias
// difference of the two drained states.
func (m *Model) improve(cost []float64, act []int, u []float64) bool {
	changed := false
	mu := m.ServiceRate
	for s, d := range act {
		vs := m.varsByState[s]
		if len(vs) < 2 {
			continue
		}
		hd := bias(u, m.served(s, d))
		best, bestAdv := d, 0.0
		for _, v := range vs {
			if v == d {
				continue
			}
			h := bias(u, m.served(s, v))
			adv := (cost[v] - cost[d]) + float64(mu*(h-hd))
			tol := piTol * (math.Abs(cost[v]) + math.Abs(cost[d]) + float64(mu*(math.Abs(h)+math.Abs(hd))))
			if adv < bestAdv && adv < -tol {
				best, bestAdv = v, adv
			}
		}
		if best != d {
			act[s] = best
			changed = true
		}
	}
	return changed
}

// freeSolution is one model's cap-free optimum by policy iteration.
type freeSolution struct {
	cost  []float64  // perturbed costs
	act   []int      // optimal deterministic policy
	f     *linalg.LU // factors of its evaluation matrix
	u     []float64  // its cost gain and biases
	pi    []float64  // its stationary distribution
	evals int        // policy evaluations run
}

// solveFree runs Howard's policy iteration on m from longest-queue over the
// perturbed costs, then reads the stationary distribution off the final
// factorisation.
func (m *Model) solveFree() (*freeSolution, error) {
	fs := &freeSolution{cost: perturbedCosts(m), act: longestQueue(m)}
	a := linalg.NewMatrix(m.numStates, m.numStates)
	rhs := make([]float64, m.numStates)
	for {
		if fs.evals == maxEvals {
			return nil, fmt.Errorf("ctmdp: bus %q: policy iteration did not converge in %d evaluations", m.Bus, maxEvals)
		}
		f, err := m.evaluate(a, fs.act)
		if err != nil {
			return nil, err
		}
		for s, v := range fs.act {
			rhs[s] = fs.cost[v]
		}
		fs.f, fs.evals = f, fs.evals+1
		if fs.u, err = f.Solve(rhs); err != nil {
			return nil, err
		}
		if !m.improve(fs.cost, fs.act, fs.u) {
			break
		}
	}
	rhs = make([]float64, m.numStates)
	rhs[0] = 1
	pi, err := fs.f.SolveT(rhs)
	if err != nil {
		return nil, err
	}
	fs.pi = nonNegative(pi)
	return fs, nil
}

// nonNegative clears roundoff-negative probabilities: states transient
// under the policy carry no mass. certify bounds what clearing can hide.
func nonNegative(pi []float64) []float64 {
	for s, p := range pi {
		if p < 0 {
			pi[s] = 0
		}
	}
	return pi
}

// measure spreads a deterministic policy's stationary distribution over the
// occupation variables: x(s, act[s]) = π_s.
func (m *Model) measure(act []int, pi []float64) []float64 {
	x := make([]float64, len(m.vars))
	for s, v := range act {
		x[v] = pi[s]
	}
	return x
}

// certify checks one model's answer x against the dual certificate of its
// occupation-measure LP at the given occupancy price: with (g, h) read off
// u, every variable's reduced cost
//
//	c'(v) + price·occ(v) − g + Σ_t q(t|v)·(h_t − h_s)
//
// must be at least −certTol·scale, and within certTol·scale of zero where x
// has mass (complementary slackness); x must be non-negative, balance to
// within certTol times the fastest exit rate, and carry mass 1 within
// certTol. scale is the largest sum of term magnitudes over the variables.
// Together these prove x optimal for the perturbed costs at that price.
func (m *Model) certify(cost []float64, price float64, u, x []float64) error {
	reduced := make([]float64, len(m.vars))
	balance := make([]float64, m.numStates)
	g := u[0]
	var scale, maxExit, mass float64
	for v, sv := range m.vars {
		s := sv.state
		hs := bias(u, s)
		c := cost[v] + float64(price*m.OccupancyUnits(s))
		r, mag, exit := c-g, math.Abs(c)+math.Abs(g), 0.0
		m.transitions(s, sv.action, func(t int, rate float64) {
			ht := bias(u, t)
			r += float64(rate * (ht - hs))
			mag += float64(rate * (math.Abs(ht) + math.Abs(hs)))
			exit += rate
			balance[t] += float64(rate * x[v])
		})
		balance[s] -= float64(exit * x[v])
		reduced[v] = r
		scale = math.Max(scale, mag)
		maxExit = math.Max(maxExit, exit)
		mass += x[v]
		if x[v] < 0 {
			return fmt.Errorf("ctmdp: bus %q: certificate: negative mass %g on state %d", m.Bus, x[v], s)
		}
	}
	for v, r := range reduced {
		if r < -certTol*scale || (x[v] > 0 && r > certTol*scale) {
			return fmt.Errorf("ctmdp: bus %q: certificate: variable %d has reduced cost %g (scale %g, mass %g)", m.Bus, v, r, scale, x[v])
		}
	}
	for s, r := range balance {
		if math.Abs(r) > certTol*maxExit {
			return fmt.Errorf("ctmdp: bus %q: certificate: state %d balance residual %g", m.Bus, s, r)
		}
	}
	if math.Abs(mass-1) > certTol {
		return fmt.Errorf("ctmdp: bus %q: certificate: mass %.17g", m.Bus, mass)
	}
	return nil
}

// solveFreeModels solves cap-free models one by one: without the
// occupancy row the programs decouple.
func solveFreeModels(models []*Model) (*JointSolution, error) {
	xs := make([][]float64, len(models))
	evals := 0
	for i, m := range models {
		fs, err := m.solveFree()
		if err != nil {
			return nil, err
		}
		xs[i] = m.measure(fs.act, fs.pi)
		if err := m.certify(fs.cost, 0, fs.u, xs[i]); err != nil {
			return nil, err
		}
		evals += fs.evals
	}
	return newJointSolution(models, xs, evals), nil
}
