package ctmdp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// JointConfig parameterises SolveJoint.
type JointConfig struct {
	// OccupancyCaps bounds the total expected buffer occupancy (in physical
	// units) across all subsystems, Σ_m Σ_(s,a) occ_m(s)·x_m(s,a) ≤ cap,
	// for a ladder of caps in order of preference. This is the constraint
	// that links the subsystem blocks — the paper's "solve all the
	// equations in one go". SolveJoint answers at the first cap of the
	// list that is feasible, and fails with ErrInfeasible when none is.
	// Every cap must be positive and finite. Empty disables the link (the
	// blocks then decouple and are solved one by one).
	OccupancyCaps []float64
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
	// CapBinding reports whether the occupancy cap answered held with
	// equality (within tolerance) — when true the K-switching theorem
	// predicts randomisation.
	CapBinding bool
	// Price is the occupancy price λ* of a capped solve: each model's
	// measure minimises its loss rate + Price × its occupancy on its own,
	// which certifies the capped optimum. Zero when the cap is slack or
	// absent.
	Price float64
	// Iters counts the work done: policy evaluations (one LU
	// factorisation each) plus the capped sweep's steps (one rank-one
	// update each) up to the cap answered.
	Iters int
}

// ErrInfeasible is returned when no cap of the ladder can be met: the
// models' least expected occupancy exceeds every cap.
var ErrInfeasible = errors.New("ctmdp: occupancy cap infeasible")

// SolveJoint solves the occupation-measure programs of the given subsystem
// models (Feinberg 2002) by Howard policy iteration.
//
// Without a cap the models decouple: each is solved alone from
// longest-queue, and its measure is the stationary distribution of its
// optimal deterministic policy.
//
// With caps the single linking row makes Lagrangian duality exact: the
// capped optimum is a set of per-model measures, each minimising loss rate
// + λ·occupancy alone, at the price λ* where total occupancy meets the cap.
// SolveJoint finds λ* by one sweep in policy space from the cap-free
// optima: while total occupancy exceeds a cap, the model with the smallest
// next breakpoint (ties to the lowest index) switches one state's action.
// The step that takes the total to or below a cap is mixed with that
// model's previous measure so the cap holds with equality, which
// randomises at most one state of one model (K-switching). The sweep
// passes the ladder's caps from the largest down and keeps the answer at
// each one it crosses, so every rung's answer is the one a sweep to that
// cap alone would give. When no model can lower its occupancy any further
// the caps not yet met are infeasible.
//
// Every answer is checked against its dual certificate before it is
// returned (certify); a failed check is an error.
func SolveJoint(models []*Model, cfg JointConfig) (*JointSolution, error) {
	if len(models) == 0 {
		return nil, errors.New("ctmdp: no models")
	}
	for _, c := range cfg.OccupancyCaps {
		if !(c > 0) || math.IsInf(c, 1) {
			return nil, fmt.Errorf("ctmdp: occupancy cap %v must be positive and finite", c)
		}
	}
	var out *JointSolution
	var cap float64
	var err error
	if len(cfg.OccupancyCaps) > 0 {
		out, cap, err = sweepCaps(models, cfg.OccupancyCaps, sweepLimit(models))
	} else {
		out, err = solveFreeModels(models)
	}
	if err != nil {
		return nil, err
	}
	if cap > 0 && out.OccupancyUsed >= cap*(1-1e-6) {
		out.CapBinding = true
	}
	return out, nil
}

// sweepBus is one model in the capped price sweep: its deterministic
// policy, the explicit inverse of the policy's evaluation matrix (kept
// current by an O(n²) rank-one update per switch), the cost and occupancy
// biases and the stationary distribution it gives, and its next
// breakpoint.
type sweepBus struct {
	m      *Model
	cost   []float64 // perturbed cost per variable
	occ    []float64 // occupancy units per state
	act    []int     // act[s]: the variable the policy plays in state s
	inv    []float64 // n×n row-major inverse of the evaluation matrix
	uc, uo []float64 // (g, h) of the cost and of the occupancy
	pi     []float64 // stationary distribution
	load   float64   // expected occupancy Σ_s occ(s)·π_s
	price  float64   // the price of this bus's last switch
	next   float64   // the price of its next breakpoint, +Inf when none
	enter  int       // the variable that enters there
	w, col []float64 // scratch for the rank-one update
}

// newSweepBus solves m cap-free and prepares it for the sweep. It returns
// the policy evaluations the cap-free solve took.
func newSweepBus(m *Model) (*sweepBus, int, error) {
	fs, err := m.solveFree()
	if err != nil {
		return nil, 0, err
	}
	n := m.numStates
	b := &sweepBus{m: m, cost: fs.cost, act: fs.act, uc: fs.u, pi: fs.pi,
		occ: make([]float64, n), w: make([]float64, n), col: make([]float64, n)}
	for s := range b.occ {
		b.occ[s] = m.OccupancyUnits(s)
	}
	if b.uo, err = fs.f.Solve(b.occ); err != nil {
		return nil, 0, err
	}
	b.inv = fs.f.Inverse().Data
	b.load = b.loadOf()
	b.breakpoint()
	return b, fs.evals, nil
}

// loadOf returns the bus's expected occupancy under its distribution.
func (b *sweepBus) loadOf() float64 {
	var l float64
	for s, p := range b.pi {
		l += b.occ[s] * p
	}
	return l
}

// breakpoint finds the smallest price at or above the bus's own at which
// an alternative action that lowers the occupancy (occupancy advantage B
// below −breakTol) becomes as good as the policy's: −A/B for cost
// advantage A. Ties go to the lowest variable index.
func (b *sweepBus) breakpoint() {
	m, mu := b.m, b.m.ServiceRate
	b.next, b.enter = math.Inf(1), -1
	for s, d := range b.act {
		vs := m.varsByState[s]
		if len(vs) < 2 {
			continue
		}
		td := m.served(s, d)
		for _, v := range vs {
			if v == d {
				continue
			}
			t := m.served(s, v)
			adv := mu * (bias(b.uo, t) - bias(b.uo, td))
			if adv >= -breakTol {
				continue
			}
			at := -((b.cost[v] - b.cost[d]) + mu*(bias(b.uc, t)-bias(b.uc, td))) / adv
			if at < b.price {
				at = b.price // roundoff: the alternative is already as good
			}
			if at < b.next {
				b.next, b.enter = at, v
			}
		}
	}
}

// step switches the state of b.enter to it at price b.next. Only that
// state's row of the evaluation matrix changes, by δ = μ(e_old − e_new)
// over the drained states' bias columns, so the inverse M takes a
// Sherman–Morrison update in O(n²). With col = M'e_s, the biases follow in
// O(n): u' = u − col·(δᵀu), plus col times the cost change for the cost
// biases; the distribution is row 0 of M'.
func (b *sweepBus) step() {
	m := b.m
	n := m.numStates
	v := b.enter
	s := m.vars[v].state
	d := b.act[s]
	told, tnew := m.served(s, d), m.served(s, v)
	mu := m.ServiceRate
	for j := range b.w {
		b.w[j] = 0
	}
	if told != 0 {
		for j, x := range b.inv[told*n : (told+1)*n] {
			b.w[j] += mu * x
		}
	}
	if tnew != 0 {
		for j, x := range b.inv[tnew*n : (tnew+1)*n] {
			b.w[j] -= mu * x
		}
	}
	den := 1 + b.w[s]
	for i := range b.col {
		b.col[i] = b.inv[i*n+s] / den
	}
	for i, f := range b.col {
		if f == 0 {
			continue
		}
		row := b.inv[i*n : (i+1)*n]
		for j, w := range b.w {
			row[j] -= f * w
		}
	}
	dc := mu * (bias(b.uc, told) - bias(b.uc, tnew))
	do := mu * (bias(b.uo, told) - bias(b.uo, tnew))
	shift := b.cost[v] - b.cost[d]
	for i, c := range b.col {
		b.uc[i] += c * (shift - dc)
		b.uo[i] -= c * do
	}
	b.act[s] = v
	b.price = b.next
	copy(b.pi, b.inv[:n])
	nonNegative(b.pi)
	b.load = b.loadOf()
	b.breakpoint()
}

// rung is the sweep's answer at one cap, kept until the sweep ends: the
// buses' measures, and each bus's gain and biases at the price, which the
// certificate of the returned rung reads.
type rung struct {
	xs, us [][]float64
	price  float64
	iters  int
}

// snapshot records the buses' measures xs at price. The sweep replaces
// measures and never writes into one, so xs is copied shallowly; the
// biases change in place and are copied.
func snapshot(buses []*sweepBus, xs [][]float64, price float64, iters int) *rung {
	r := &rung{xs: append([][]float64(nil), xs...), us: make([][]float64, len(buses)), price: price, iters: iters}
	for i, b := range buses {
		u := make([]float64, len(b.uc))
		for j, c := range b.uc {
			u[j] = c + price*b.uo[j]
		}
		r.us[i] = u
	}
	return r
}

// solution checks every bus's measure against its certificate and wraps
// the measures as a JointSolution.
func (r *rung) solution(buses []*sweepBus) (*JointSolution, error) {
	models := make([]*Model, len(buses))
	for i, b := range buses {
		models[i] = b.m
		if err := b.m.certify(b.cost, r.price, r.us[i], r.xs[i]); err != nil {
			return nil, err
		}
	}
	out := newJointSolution(models, r.xs, r.iters)
	out.Price = r.price
	return out, nil
}

// sweepCaps solves the capped program bus by bus, as SolveJoint describes.
// It returns the answer at the most preferred cap the sweep meets, with
// that cap. limit bounds the sweep's steps; past it the sweep fails
// with ErrSweepLimit.
func sweepCaps(models []*Model, caps []float64, limit int) (*JointSolution, float64, error) {
	buses := make([]*sweepBus, len(models))
	xs := make([][]float64, len(models))
	var total float64
	iters := 0
	for i, m := range models {
		b, evals, err := newSweepBus(m)
		if err != nil {
			return nil, 0, err
		}
		buses[i], xs[i] = b, m.measure(b.act, b.pi)
		total += b.load
		iters += evals
	}
	// The rungs in the order the sweep meets them: largest cap first.
	order := make([]int, len(caps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return caps[order[i]] > caps[order[j]] })
	rungs := make([]*rung, len(caps))
	for len(order) > 0 && total <= caps[order[0]] {
		rungs[order[0]], order = snapshot(buses, xs, 0, iters), order[1:]
	}

	for steps := 0; len(order) > 0 && rungs[0] == nil; steps++ {
		if steps >= limit {
			return nil, 0, ErrSweepLimit
		}
		k := -1
		for i, b := range buses {
			if b.enter >= 0 && (k < 0 || b.next < buses[k].next) {
				k = i
			}
		}
		if k < 0 {
			break // no model can lower its occupancy: the rest are infeasible
		}
		b := buses[k]
		before, rest := b.load, total-b.load
		price := b.next
		b.step()
		iters++
		after := b.m.measure(b.act, b.pi)
		for len(order) > 0 && rest+b.load <= caps[order[0]] {
			// Mix the measures before and after the step so the total
			// meets the cap exactly: w is the previous measure's weight.
			cap := caps[order[0]]
			w := (cap - rest - b.load) / (before - b.load)
			mixed := make([]float64, len(after))
			for j, v := range after {
				mixed[j] = w*xs[k][j] + (1-w)*v
			}
			r := snapshot(buses, xs, price, iters)
			r.xs[k] = mixed
			rungs[order[0]], order = r, order[1:]
		}
		xs[k], total = after, rest+b.load
	}
	for i, r := range rungs {
		if r != nil {
			sol, err := r.solution(buses)
			return sol, caps[i], err
		}
	}
	return nil, 0, ErrInfeasible
}

// sweepLimit bounds a capped sweep's steps: the models' variables times
// their states, summed — far above the few switches per state a sweep
// takes.
func sweepLimit(models []*Model) int {
	n := 0
	for _, m := range models {
		n += m.NumVars() * m.numStates
	}
	return n
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
