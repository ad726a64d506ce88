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
	t.Helper()
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
	t.Helper()
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

// certifyAnswer referees one model's answer at the given occupancy price
// from the model's exported description, sharing nothing with the solver
// but the model. It evaluates the answer's policy over the states its
// chain reaches — every measure lives there: states off it hold a client
// that never receives traffic — with a dense solve of the evaluation
// system (g, h; h_0 = 0) at the true costs, and requires
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
	index := map[int]int{}
	for k, s := range chain.States {
		index[s] = k
	}
	if len(chain.States) == 0 || chain.States[0] != 0 {
		t.Fatalf("%s: chain does not start at the all-empty state", name)
	}
	n := len(chain.States)
	a := linalg.NewMatrix(n, n)
	rhs := make([]float64, n)
	levels := make([]int, len(m.Clients))
	col := func(s int) int {
		k, ok := index[s]
		if !ok {
			t.Fatalf("%s: state %d leaves the policy's chain", name, s)
		}
		return k
	}
	for k, s := range chain.States {
		for c := range levels {
			levels[c] = m.Level(s, c)
		}
		probs, err := ms.Policy.Action(levels)
		if err != nil {
			t.Fatal(err)
		}
		row := a.Row(k)
		row[0] = 1
		var exit float64
		idle := true
		for c, p := range probs {
			if p <= 0 || levels[c] == 0 {
				continue
			}
			idle = false
			rhs[k] += p * (m.CostRate(s, c) + price*m.OccupancyUnits(s))
			targets, rates := moves(t, m, s, c)
			for i, tg := range targets {
				if j := col(tg); j != 0 {
					row[j] -= p * rates[i]
				}
				exit += p * rates[i]
			}
		}
		if idle {
			rhs[k] = m.CostRate(s, -1) + price*m.OccupancyUnits(s)
			targets, rates := moves(t, m, s, -1)
			for i, tg := range targets {
				if j := col(tg); j != 0 {
					row[j] -= rates[i]
				}
				exit += rates[i]
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
	h := func(s int) float64 {
		if k := col(s); k != 0 {
			return u[k]
		}
		return 0
	}
	g := u[0]

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
		if _, ok := index[s]; !ok {
			off += x
			continue
		}
		c := m.CostRate(s, act) + price*m.OccupancyUnits(s)
		r, mag := c-g, math.Abs(c)+math.Abs(g)
		for i, tg := range targets {
			r += rates[i] * (h(tg) - h(s))
			mag += rates[i] * (math.Abs(h(tg)) + math.Abs(h(s)))
		}
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
// simplex stopped above the optimum in the canonical clone's client order:
// seed 8057343451856234379 bus08 by 0.85% and seed 4237784468305597840
// bus04 by 2.9%. The served answer must come out below that LP objective
// and pass the certificate.
func TestPIBelowLPWhereLPStopsEarly(t *testing.T) {
	for _, c := range []struct {
		seed int64
		bus  string
	}{
		{8057343451856234379, "bus08"},
		{4237784468305597840, "bus04"},
	} {
		name := fmt.Sprintf("seed %d %s", c.seed, c.bus)
		m := chain12Bus(t, c.seed, c.bus)
		p := programOf(t, byRate(t, m))
		stuck, err := alone(p, p.cost)
		if err != nil {
			t.Fatalf("%s: LP referee: %v", name, err)
		}
		sol, err := solvecache.New().SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		certifyJoint(t, name, sol, 0)
		if sol.TotalLossRate >= stuck*(1-1e-3) {
			t.Errorf("%s: served loss %.10g, the simplex stopped at %.10g", name, sol.TotalLossRate, stuck)
		}
		t.Logf("%s: served %.10g, simplex %.10g (%.2f%% above)", name, sol.TotalLossRate, stuck, 100*(stuck/sol.TotalLossRate-1))
	}
}

// TestCertificateProperty certifies every cap-free and capped answer over
// generated programs: chain, star, tree and mesh at fan-out 1 and 2, 3–12
// buses and 2–8 units per buffer, 30 seeds per family and fan-out. Each bus
// is solved cap-free alone, as the methodology does, and the buses jointly
// under core's cap ladder (0.92, 0.96, 0.97 × the cap-free occupancy). An
// infeasible ladder is confirmed by the LP referee's minimum occupancies.
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
					var least float64
					for _, m := range models {
						p := programOf(t, m)
						v, err := alone(p, p.occ)
						if err != nil {
							t.Fatalf("%s: minimum occupancy: %v", name, err)
						}
						least += v
					}
					if least <= caps[2]*(1-1e-9) {
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
func policyValue(t *testing.T, m *ctmdp.Model, act []int) (loss, occ float64) {
	t.Helper()
	b := linalg.NewSparseBuilder(m.NumStates(), m.NumStates())
	for s, v := range act {
		_, a := m.VarStateAction(v)
		targets, rates := moves(t, m, s, a)
		var exit float64
		for i, tg := range targets {
			b.Add(s, tg, rates[i])
			exit += rates[i]
		}
		b.Add(s, s, -exit)
	}
	pi, err := linalg.StationaryDense(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	for s, v := range act {
		_, a := m.VarStateAction(v)
		loss += pi[s] * m.CostRate(s, a)
		occ += pi[s] * m.OccupancyUnits(s)
	}
	return loss, occ
}

// TestBruteForceSmallModels enumerates every deterministic policy of small
// random models — one to three clients, levels 1–2, all arrival rates
// positive — and checks the solver against the enumeration: the cap-free
// loss is the least any policy reaches, and the loss under a cap is the
// lower convex envelope of the policies' (occupancy, loss) points at the
// cap, infeasible exactly when every policy holds more than the cap.
func TestBruteForceSmallModels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	models := 0
	for models < 40 {
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
		models++
		type point struct{ occ, loss float64 }
		var points []point
		act := make([]int, m.NumStates())
		for {
			for s := range act {
				act[s] = m.StateVars(s)[choice[s]]
			}
			loss, occ := policyValue(t, m, act)
			points = append(points, point{occ, loss})
			s := 0
			for ; s < len(choice); s++ {
				if choice[s]++; choice[s] < len(m.StateVars(s)) {
					break
				}
				choice[s] = 0
			}
			if s == len(choice) {
				break
			}
		}
		best, least, most := math.Inf(1), math.Inf(1), 0.0
		for _, p := range points {
			best, least, most = math.Min(best, p.loss), math.Min(least, p.occ), math.Max(most, p.occ)
		}
		name := fmt.Sprintf("model %d (%d policies)", models, len(points))
		free, err := ctmdp.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !relClose(free.TotalLossRate, best, 1e-8) {
			t.Errorf("%s: cap-free loss %.12g, the best policy reaches %.12g", name, free.TotalLossRate, best)
		}
		for _, f := range []float64{0.2, 0.5, 0.8, 0.95} {
			cap := least + f*(free.OccupancyUsed-least) - 0.05*(1-f)*least
			// The envelope at cap: the cheapest mix of two policies whose
			// occupancies bracket it, or a policy already under it.
			envelope := math.Inf(1)
			for _, p := range points {
				if p.occ <= cap {
					envelope = math.Min(envelope, p.loss)
					continue
				}
				for _, q := range points {
					if q.occ < cap {
						w := (cap - q.occ) / (p.occ - q.occ)
						envelope = math.Min(envelope, w*p.loss+(1-w)*q.loss)
					}
				}
			}
			capped, err := ctmdp.SolveJoint([]*ctmdp.Model{m}, ctmdp.JointConfig{OccupancyCaps: []float64{cap}})
			cname := fmt.Sprintf("%s cap %.4g (least %.4g)", name, cap, least)
			if math.IsInf(envelope, 1) {
				if !errors.Is(err, ctmdp.ErrInfeasible) {
					t.Errorf("%s: no policy mix meets the cap, solver gives %v", cname, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", cname, err)
				continue
			}
			if !relClose(capped.TotalLossRate, envelope, 1e-8) {
				t.Errorf("%s: capped loss %.12g, the envelope gives %.12g", cname, capped.TotalLossRate, envelope)
			}
		}
	}
}
