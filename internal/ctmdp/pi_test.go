package ctmdp_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"socbuf/internal/ctmdp"
	"socbuf/internal/linalg"
	"socbuf/internal/scenario"
	"socbuf/internal/solvecache"
)

// certTol is the test-side certificate's relative tolerance. The solver
// certifies the perturbed program it solves; this referee prices the true
// costs, which the perturbation moves by ~1e-9 of the largest cost.
const certTol = 1e-8

// neighbour returns the state client c's level moves to by delta from s.
func neighbour(t *testing.T, m *ctmdp.Model, s, c, delta int) int {
	levels := make([]int, len(m.Clients))
	for k := range levels {
		levels[k] = m.Level(s, k)
	}
	levels[c] += delta
	target, err := m.StateOf(levels)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

// moves lists the transitions of (s, a) as target states and rates:
// arrivals below capacity, then the transfer of client a (a ≥ 0).
func moves(t *testing.T, m *ctmdp.Model, s, a int) (targets []int, rates []float64) {
	for c, cl := range m.Clients {
		if cl.Lambda > 0 && m.Level(s, c) < cl.Levels {
			targets = append(targets, neighbour(t, m, s, c, 1))
			rates = append(rates, cl.Lambda)
		}
	}
	if a >= 0 && m.Level(s, a) > 0 {
		targets = append(targets, neighbour(t, m, s, a, -1))
		rates = append(rates, m.ServiceRate)
	}
	return targets, rates
}

// reducedCost returns the reduced cost of (s, a) at cost rate c under gain
// g and biases h, c − g + Σ_t q(t|s,a)(h_t − h_s), and the sum of its
// terms' magnitudes, the scale its tolerance is relative to.
func reducedCost(t *testing.T, m *ctmdp.Model, s, a int, c, g float64, h func(int) float64) (r, mag float64) {
	targets, rates := moves(t, m, s, a)
	r, mag = c-g, math.Abs(c)+math.Abs(g)
	for i, tg := range targets {
		r += rates[i] * (h(tg) - h(s))
		mag += rates[i] * (math.Abs(h(tg)) + math.Abs(h(s)))
	}
	return r, mag
}

// evaluate solves a policy's evaluation system over states, the all-empty
// state first, with a dense solve:
//
//	g − Σ_a p(a|s) Σ_t q(t|s,a)(h_t − h_s) = Σ_a p(a|s)·cost(s, a),  h_0 = 0.
//
// policy(s) lists the actions played in s with their probabilities. It
// returns the gain and the biases by state; the test fails if a transition
// leaves states.
func evaluate(t *testing.T, name string, m *ctmdp.Model, states []int,
	policy func(s int) ([]int, []float64), cost func(s, a int) float64) (float64, func(int) float64) {
	t.Helper()
	if len(states) == 0 || states[0] != 0 {
		t.Fatalf("%s: evaluation does not start at the all-empty state", name)
	}
	index := make(map[int]int, len(states))
	for k, s := range states {
		index[s] = k
	}
	col := func(s int) int {
		k, ok := index[s]
		if !ok {
			t.Fatalf("%s: state %d leaves the policy's chain", name, s)
		}
		return k
	}
	n := len(states)
	a := linalg.NewMatrix(n, n)
	rhs := make([]float64, n)
	for k, s := range states {
		row := a.Row(k)
		row[0] = 1
		var exit float64
		acts, probs := policy(s)
		for ai, act := range acts {
			p := probs[ai]
			rhs[k] += p * cost(s, act)
			targets, rates := moves(t, m, s, act)
			for i, tg := range targets {
				if j := col(tg); j != 0 {
					row[j] -= p * rates[i]
				}
				exit += p * rates[i]
			}
		}
		if k != 0 {
			row[k] += exit
		}
	}
	u, err := linalg.Solve(a, rhs)
	if err != nil {
		t.Fatalf("%s: evaluation: %v", name, err)
	}
	return u[0], func(s int) float64 {
		if k := col(s); k != 0 {
			return u[k]
		}
		return 0
	}
}

// certifyAnswer referees one model's answer at the given occupancy price
// from the model's exported description, sharing nothing with the solver
// but the model. It evaluates the answer's policy over the states its
// chain reaches — every measure lives there: states off it hold a client
// that never receives traffic — at the true costs, and requires
//
//   - every (state, action) there to have reduced cost
//     c(s,a) + price·occ(s) − g + Σ_t q(t|s,a)(h_t − h_s) ≥ −certTol·scale,
//     and |reduced cost| ≤ certTol·scale where the answer has mass;
//   - the measure to be non-negative, to balance within 1e-9 of the fastest
//     exit rate, to carry mass 1 within 1e-9 and none off the chain.
//
// It returns the worst reduced cost over scale, for calibration logs.
func certifyAnswer(t *testing.T, name string, ms *ctmdp.ModelSolution, price float64) float64 {
	t.Helper()
	m := ms.Model
	chain, err := ms.PolicyChain()
	if err != nil {
		t.Fatalf("%s: policy chain: %v", name, err)
	}
	onChain := make(map[int]bool, len(chain.States))
	for _, s := range chain.States {
		onChain[s] = true
	}
	levels := make([]int, len(m.Clients))
	var acts []int
	var probs []float64
	policy := func(s int) ([]int, []float64) {
		for c := range levels {
			levels[c] = m.Level(s, c)
		}
		grant, err := ms.Policy.Action(levels)
		if err != nil {
			t.Fatal(err)
		}
		acts, probs = acts[:0], probs[:0]
		for c, p := range grant {
			if p > 0 && levels[c] > 0 {
				acts, probs = append(acts, c), append(probs, p)
			}
		}
		if len(acts) == 0 {
			acts, probs = append(acts, -1), append(probs, 1)
		}
		return acts, probs
	}
	priced := func(s, a int) float64 { return m.CostRate(s, a) + price*m.OccupancyUnits(s) }
	g, h := evaluate(t, name, m, chain.States, policy, priced)

	type reduced struct {
		v    int
		r    float64
		mass float64
	}
	var rs []reduced
	var scale, maxExit, mass, off float64
	balance := make([]float64, m.NumStates())
	for v := 0; v < m.NumVars(); v++ {
		s, act := m.VarStateAction(v)
		x := ms.X[v]
		if x < 0 {
			t.Fatalf("%s: negative mass %g on variable %d", name, x, v)
		}
		mass += x
		targets, rates := moves(t, m, s, act)
		var exit float64
		for i, tg := range targets {
			balance[tg] += rates[i] * x
			exit += rates[i]
		}
		balance[s] -= exit * x
		maxExit = math.Max(maxExit, exit)
		if !onChain[s] {
			off += x
			continue
		}
		r, mag := reducedCost(t, m, s, act, priced(s, act), g, h)
		scale = math.Max(scale, mag)
		rs = append(rs, reduced{v, r, x})
	}
	worst := 0.0
	for _, r := range rs {
		worst = math.Min(worst, r.r/scale)
		if r.r < -certTol*scale {
			t.Errorf("%s: variable %d has reduced cost %g < −%g·%g: the policy is not optimal", name, r.v, r.r, certTol, scale)
		}
		if r.mass > 1e-12 && math.Abs(r.r) > certTol*scale {
			t.Errorf("%s: variable %d carries mass %g at reduced cost %g", name, r.v, r.mass, r.r)
		}
	}
	for s, r := range balance {
		if math.Abs(r) > 1e-9*maxExit {
			t.Errorf("%s: state %d balance residual %g", name, s, r)
		}
	}
	if math.Abs(mass-1) > 1e-9 || off > 1e-12 {
		t.Errorf("%s: mass %.17g, %g of it off the policy's chain", name, mass, off)
	}
	return worst
}

// certifyJoint referees a joint answer: each bus at the answer's price,
// the totals, the cap when given (met exactly under a positive price, never
// exceeded) and at most one randomised state.
func certifyJoint(t *testing.T, name string, sol *ctmdp.JointSolution, cap float64) float64 {
	t.Helper()
	worst := 0.0
	var loss, occ float64
	randomised := 0
	for i, ms := range sol.PerModel {
		worst = math.Min(worst, certifyAnswer(t, fmt.Sprintf("%s bus %d", name, i), ms, sol.Price))
		loss += ms.LossRate
		for s, p := range ms.StateProb {
			occ += ms.Model.OccupancyUnits(s) * p
		}
		randomised += len(ms.Policy.KSwitching().Randomised)
	}
	if !relClose(loss, sol.TotalLossRate, 1e-12) || !relClose(occ, sol.OccupancyUsed, 1e-12) {
		t.Errorf("%s: totals %g, %g disagree with the buses' %g, %g", name, sol.TotalLossRate, sol.OccupancyUsed, loss, occ)
	}
	if sol.Price < 0 {
		t.Errorf("%s: negative price %g", name, sol.Price)
	}
	if cap > 0 {
		if sol.Price > 0 && !relClose(sol.OccupancyUsed, cap, 1e-9) {
			t.Errorf("%s: price %g but occupancy %.12g ≠ cap %.12g", name, sol.Price, sol.OccupancyUsed, cap)
		}
		if sol.OccupancyUsed > cap*(1+1e-9) {
			t.Errorf("%s: occupancy %.12g over the cap %.12g", name, sol.OccupancyUsed, cap)
		}
	}
	if randomised > 1 {
		t.Errorf("%s: %d randomised states", name, randomised)
	}
	return worst
}

// chain12Bus builds one bus model of a 12-bus, fan-out-2, skew-4 chain at a
// uniform 192-unit allocation, in the client order core gives it.
func chain12Bus(t *testing.T, seed int64, bus string) *ctmdp.Model {
	t.Helper()
	a, err := scenario.Topology{Kind: scenario.KindChain, Buses: 12, FanOut: 2, Skew: 4, Seed: seed}.Build()
	if err != nil {
		t.Fatal(err)
	}
	a.InsertBridgeBuffers()
	for _, m := range buildModelsAt(t, a, 192) {
		if m.Bus == bus {
			return m
		}
	}
	t.Fatalf("seed %d has no %s", seed, bus)
	return nil
}

// byRate returns m with its clients in ascending arrival-rate order, the
// order the solve cache's canonical clone gives these buses.
func byRate(t *testing.T, m *ctmdp.Model) *ctmdp.Model {
	t.Helper()
	clients := append([]ctmdp.Client(nil), m.Clients...)
	sort.SliceStable(clients, func(i, j int) bool { return clients[i].Lambda < clients[j].Lambda })
	sorted, err := ctmdp.NewModel(m.Bus, m.ServiceRate, clients)
	if err != nil {
		t.Fatal(err)
	}
	return sorted
}

// TestLPFailuresSolveAndCertify pins five bus models the simplex called
// infeasible: 81-state buses with rates between 1 and 50. Four failed only
// on the solve cache's canonical clone, the served path; seed
// 3160684052629424482 bus07 only in its own client order. Each must now
// solve, in both orders and through the cache, and pass the certificate.
func TestLPFailuresSolveAndCertify(t *testing.T) {
	for _, c := range []struct {
		seed int64
		bus  string
	}{
		{1348050685572117713, "bus01"},
		{3160684052629424482, "bus04"},
		{3160684052629424482, "bus07"},
		{6101884072469496988, "bus04"},
		{6101884072469496988, "bus05"},
	} {
		m := chain12Bus(t, c.seed, c.bus)
		for _, v := range []struct {
			how   string
			solve func() (*ctmdp.JointSolution, error)
		}{
			{"own order", func() (*ctmdp.JointSolution, error) {
				return ctmdp.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
			}},
			{"by rate", func() (*ctmdp.JointSolution, error) {
				return ctmdp.SolveJoint([]*ctmdp.Model{byRate(t, m)}, ctmdp.JointConfig{})
			}},
			{"cached", func() (*ctmdp.JointSolution, error) {
				return solvecache.New().SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
			}},
		} {
			name := fmt.Sprintf("seed %d %s, %s", c.seed, c.bus, v.how)
			sol, err := v.solve()
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			certifyJoint(t, name, sol, 0)
		}
	}
}

// TestPIBelowLPWhereLPStopsEarly pins the two bus models on which the
// simplex that policy iteration replaced stopped above the optimum in the
// canonical clone's client order: seed 8057343451856234379 bus08 by 0.85%
// and seed 4237784468305597840 bus04 by 2.9%. The objectives it stopped at
// are recorded below at full precision. The served answer must come out
// below them and pass the certificate.
func TestPIBelowLPWhereLPStopsEarly(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		bus   string
		stuck float64 // the simplex's objective
	}{
		{8057343451856234379, "bus08", 3.2551946901247355},
		{4237784468305597840, "bus04", 4.0764312384561512},
	} {
		name := fmt.Sprintf("seed %d %s", c.seed, c.bus)
		m := chain12Bus(t, c.seed, c.bus)
		sol, err := solvecache.New().SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		certifyJoint(t, name, sol, 0)
		if sol.TotalLossRate >= c.stuck*(1-1e-3) {
			t.Errorf("%s: served loss %.10g, the simplex stopped at %.10g", name, sol.TotalLossRate, c.stuck)
		}
		t.Logf("%s: served %.10g, simplex %.10g (%.2f%% above)", name, sol.TotalLossRate, c.stuck, 100*(c.stuck/sol.TotalLossRate-1))
	}
}

// TestCertificateProperty certifies every cap-free and capped answer over
// generated programs: chain, star, tree and mesh at fan-out 1 and 2, 3–12
// buses and 2–8 units per buffer, 30 seeds per family and fan-out. Each bus
// is solved cap-free alone, as the methodology does, and the buses jointly
// under core's cap ladder (0.92, 0.96, 0.97 × the cap-free occupancy). An
// infeasible ladder is confirmed by the buses' least occupancies
// (leastOccupancy).
func TestCertificateProperty(t *testing.T) {
	kinds := []string{scenario.KindChain, scenario.KindStar, scenario.KindTree, scenario.KindMesh}
	rng := rand.New(rand.NewSource(20261018))
	var answers, infeasible int
	worst := 0.0
	for _, kind := range kinds {
		for fanOut := 1; fanOut <= 2; fanOut++ {
			for i := 0; i < 30; i++ {
				topo := scenario.Topology{Kind: kind, Buses: 3 + rng.Intn(10), FanOut: fanOut, Skew: 4, Seed: rng.Int63()}
				models := buildModels(t, topo, 2+rng.Intn(7))
				var free float64
				for b, m := range models {
					name := fmt.Sprintf("%v bus %d cap-free", topo, b)
					sol, err := ctmdp.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					worst = math.Min(worst, certifyJoint(t, name, sol, 0))
					free += sol.OccupancyUsed
					answers++
				}
				caps := []float64{0.92 * free, 0.96 * free, 0.97 * free}
				sol, err := ctmdp.SolveJoint(models, ctmdp.JointConfig{OccupancyCaps: caps})
				name := fmt.Sprintf("%v capped", topo)
				if errors.Is(err, ctmdp.ErrInfeasible) {
					infeasible++
					if least := leastOccupancies(t, name, models); least <= caps[2]*(1-1e-9) {
						t.Errorf("%s: reported infeasible, yet the buses can hold %g ≤ cap %g", name, least, caps[2])
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				answered := -1.0
				for _, c := range caps {
					if sol.OccupancyUsed <= c*(1+1e-9) {
						answered = c
						break
					}
				}
				if answered < 0 {
					t.Errorf("%s: occupancy %g meets no cap of %v", name, sol.OccupancyUsed, caps)
				}
				worst = math.Min(worst, certifyJoint(t, name, sol, answered))
				answers++
			}
		}
	}
	t.Logf("answers certified: %d, infeasible ladders confirmed: %d, worst reduced cost/scale %.3g", answers, infeasible, worst)
}

// TestLadderEqualsSeparateSweeps: one sweep over a ladder of caps answers
// each rung bit for bit as a sweep to that cap alone does, on the
// certificate test's programs. Each rung is put first in the ladder, so
// the sweep records the larger caps on its way; and the ladder in core's
// order equals trying the caps one by one until one is feasible.
func TestLadderEqualsSeparateSweeps(t *testing.T) {
	instances, _ := certificateInstances(t)
	compared := 0
	for _, in := range instances {
		caps := []float64{0.92 * in.free, 0.96 * in.free, 0.97 * in.free}
		var first *ctmdp.JointSolution // the retry ladder's answer
		for i, c := range caps {
			name := fmt.Sprintf("%v cap %.2f", in.topo, c/in.free)
			alone, err := ctmdp.SolveJoint(in.models, ctmdp.JointConfig{OccupancyCaps: []float64{c}})
			ladder := append([]float64{c}, caps[:i]...)
			ladder = append(ladder, caps[i+1:]...)
			led, ledErr := ctmdp.SolveJoint(in.models, ctmdp.JointConfig{OccupancyCaps: ladder})
			if errors.Is(err, ctmdp.ErrInfeasible) {
				// The rung is infeasible alone; the ladder answers at a
				// larger cap or is infeasible too.
				if ledErr == nil && led.OccupancyUsed <= c {
					t.Errorf("%s: ladder meets a cap the sweep alone calls infeasible", name)
				}
				continue
			}
			if err != nil || ledErr != nil {
				t.Fatalf("%s: %v / %v", name, err, ledErr)
			}
			sameSolution(t, name, led, alone)
			compared++
			if first == nil {
				first = alone
			}
		}
		led, err := ctmdp.SolveJoint(in.models, ctmdp.JointConfig{OccupancyCaps: caps})
		if first == nil {
			if !errors.Is(err, ctmdp.ErrInfeasible) {
				t.Errorf("%v: every rung infeasible alone, the ladder gives %v", in.topo, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: ladder: %v", in.topo, err)
		}
		sameSolution(t, fmt.Sprintf("%v ladder", in.topo), led, first)
	}
	if compared == 0 {
		t.Fatal("no rung compared")
	}
}

// sameSolution fails unless a and b agree bit for bit.
func sameSolution(t *testing.T, name string, a, b *ctmdp.JointSolution) {
	t.Helper()
	if a.TotalLossRate != b.TotalLossRate || a.OccupancyUsed != b.OccupancyUsed || a.Price != b.Price ||
		a.CapBinding != b.CapBinding || a.Iters != b.Iters || len(a.PerModel) != len(b.PerModel) {
		t.Errorf("%s: totals differ: %+v vs %+v", name, *a, *b)
		return
	}
	for i := range a.PerModel {
		x, y := a.PerModel[i], b.PerModel[i]
		if x.LossRate != y.LossRate {
			t.Errorf("%s: bus %d loss %v vs %v", name, i, x.LossRate, y.LossRate)
		}
		for v := range x.X {
			if x.X[v] != y.X[v] {
				t.Errorf("%s: bus %d variable %d: %v vs %v", name, i, v, x.X[v], y.X[v])
				break
			}
		}
	}
}

// policyValue evaluates a deterministic policy (one variable per state) of
// m by its stationary distribution: its loss rate and expected occupancy.
func policyValue(t *testing.T, m *ctmdp.Model, act []int) point {
	t.Helper()
	gen := linalg.NewMatrix(m.NumStates(), m.NumStates())
	for s, v := range act {
		_, a := m.VarStateAction(v)
		targets, rates := moves(t, m, s, a)
		var exit float64
		for i, tg := range targets {
			gen.Add(s, tg, rates[i])
			exit += rates[i]
		}
		gen.Add(s, s, -exit)
	}
	pi, err := linalg.StationaryDense(gen)
	if err != nil {
		t.Fatal(err)
	}
	var p point
	for s, v := range act {
		_, a := m.VarStateAction(v)
		p.loss += pi[s] * m.CostRate(s, a)
		p.occ += pi[s] * m.OccupancyUnits(s)
	}
	return p
}

// point is a policy's expected occupancy and loss rate, or an envelope
// edge's changes in both.
type point struct{ occ, loss float64 }

// smallModel draws models the way TestBruteForceSmallModels describes until
// one has at most 4,096 deterministic policies, and returns it with every
// policy's point.
func smallModel(t *testing.T, rng *rand.Rand) (*ctmdp.Model, []point) {
	t.Helper()
	for {
		nc := 1 + rng.Intn(3)
		clients := make([]ctmdp.Client, nc)
		for c := range clients {
			clients[c] = ctmdp.Client{
				BufferID:           fmt.Sprintf("c%d", c),
				Lambda:             0.3 + 3*rng.Float64(),
				Levels:             1 + rng.Intn(2),
				UnitsPerLevel:      float64(1 + rng.Intn(4)),
				LossWeight:         0.5 + rng.Float64(),
				DownstreamFullProb: 0.3 * rng.Float64(),
			}
		}
		m, err := ctmdp.NewModel("b", 0.5+4*rng.Float64(), clients)
		if err != nil {
			t.Fatal(err)
		}
		// Every policy: one variable per state, odometer over the choices.
		choice := make([]int, m.NumStates())
		count := 1
		for s := range choice {
			count *= len(m.StateVars(s))
		}
		if count > 4096 {
			continue
		}
		var points []point
		act := make([]int, m.NumStates())
		for {
			for s := range act {
				act[s] = m.StateVars(s)[choice[s]]
			}
			points = append(points, policyValue(t, m, act))
			s := 0
			for ; s < len(choice); s++ {
				if choice[s]++; choice[s] < len(m.StateVars(s)) {
					break
				}
				choice[s] = 0
			}
			if s == len(choice) {
				return m, points
			}
		}
	}
}

// envelope is the lower-left convex envelope of one bus's policy points:
// its least-occupancy point, then edges of rising (negative) slope down to
// its least loss. A bus's measures are the mixes of its deterministic
// policies, so their (occupancy, loss) pairs fill the convex hull of the
// policies' points, and the least loss at each occupancy lies on this
// envelope.
type envelope struct {
	start point
	edges []point
}

func envelopeOf(points []point) envelope {
	sorted := append([]point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].occ != sorted[j].occ {
			return sorted[i].occ < sorted[j].occ
		}
		return sorted[i].loss < sorted[j].loss
	})
	// Monotone chain over the points that lower the loss: pop the last
	// vertex while it does not lie strictly below the chord to p.
	hull := sorted[:1]
	for _, p := range sorted[1:] {
		if p.loss >= hull[len(hull)-1].loss {
			continue
		}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			if (b.occ-a.occ)*(p.loss-a.loss)-(b.loss-a.loss)*(p.occ-a.occ) > 0 {
				break
			}
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	e := envelope{start: hull[0]}
	for i := 1; i < len(hull); i++ {
		e.edges = append(e.edges, point{hull[i].occ - hull[i-1].occ, hull[i].loss - hull[i-1].loss})
	}
	return e
}

// jointValue returns the least summed loss of buses whose summed occupancy
// is at most cap: the infimal convolution of their envelopes, which starts
// from the summed least-occupancy points and takes the buses' edges in
// order of slope. It reports false when cap lies below the summed least
// occupancies, where the program is infeasible.
func jointValue(envs []envelope, cap float64) (float64, bool) {
	var at point
	var edges []point
	for _, e := range envs {
		at.occ += e.start.occ
		at.loss += e.start.loss
		edges = append(edges, e.edges...)
	}
	if cap < at.occ {
		return 0, false
	}
	sort.SliceStable(edges, func(i, j int) bool {
		return edges[i].loss/edges[i].occ < edges[j].loss/edges[j].occ
	})
	for _, e := range edges {
		if at.occ+e.occ >= cap {
			return at.loss + e.loss*(cap-at.occ)/e.occ, true
		}
		at.occ += e.occ
		at.loss += e.loss
	}
	return at.loss, true
}

// TestBruteForceSmallModels enumerates every deterministic policy of small
// random models — one to three clients, levels 1–2, all arrival rates
// positive, at most 4,096 policies — and checks the solver against the
// enumeration on 40 one-bus programs and 30 programs of two or three
// buses. The cap-free loss is the summed least loss any policy reaches;
// under one shared cap it is the infimal convolution of the buses'
// envelopes at the cap (jointValue), infeasible exactly when the cap lies
// below the summed least occupancies.
func TestBruteForceSmallModels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var compared, infeasible [2]int // one-bus, multi-bus programs
	worst := 0.0
	for prog := 0; prog < 70; prog++ {
		buses := 1
		if prog >= 40 {
			buses = 2 + rng.Intn(2)
		}
		models := make([]*ctmdp.Model, buses)
		envs := make([]envelope, buses)
		policies := 0
		var best, least float64
		for b := range models {
			var points []point
			models[b], points = smallModel(t, rng)
			envs[b] = envelopeOf(points)
			policies += len(points)
			e := envs[b]
			best += e.start.loss
			for _, d := range e.edges {
				best += d.loss
			}
			least += e.start.occ
		}
		name := fmt.Sprintf("program %d (%d buses, %d policies)", prog, buses, policies)
		free, err := ctmdp.SolveJoint(models, ctmdp.JointConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !relClose(free.TotalLossRate, best, 1e-8) {
			t.Errorf("%s: cap-free loss %.12g, the best policies reach %.12g", name, free.TotalLossRate, best)
		}
		for _, f := range []float64{0.2, 0.5, 0.8, 0.95} {
			cap := least + f*(free.OccupancyUsed-least) - 0.05*(1-f)*least
			want, feasible := jointValue(envs, cap)
			capped, err := ctmdp.SolveJoint(models, ctmdp.JointConfig{OccupancyCaps: []float64{cap}})
			cname := fmt.Sprintf("%s cap %.4g (least %.4g)", name, cap, least)
			multi := min(buses-1, 1)
			if !feasible {
				if !errors.Is(err, ctmdp.ErrInfeasible) {
					t.Errorf("%s: no policy mix meets the cap, solver gives %v", cname, err)
				}
				infeasible[multi]++
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", cname, err)
				continue
			}
			if !relClose(capped.TotalLossRate, want, 1e-8) {
				t.Errorf("%s: capped loss %.12g, the envelopes give %.12g", cname, capped.TotalLossRate, want)
			}
			compared[multi]++
			worst = math.Max(worst, math.Abs(capped.TotalLossRate-want)/want)
		}
	}
	t.Logf("capped losses compared (one-bus, multi-bus): %v, infeasible verdicts agreed: %v, worst relative gap %.2g",
		compared, infeasible, worst)
}
