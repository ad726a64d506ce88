package solver

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"socbuf/internal/arch"
	"socbuf/internal/core"
	"socbuf/internal/queueing"
)

// runAnalytic sizes buffers from closed-form M/M/1/K blocking probabilities
// (internal/queueing) instead of the CTMDP/LP: each buffer is approximated
// as an M/M/1/K queue at its boundary-estimated arrival rate and its share
// of the bus's service capacity, and the budget is spent by a
// marginal-allocation greedy — every unit goes to the buffer whose weighted
// loss rate w·λ·B(K) drops most. The M/M/1/K marginals are decreasing in K,
// so the greedy is exact for the separable analytic objective (the same
// argument as ctmdp.Translate's, with the closed-form blocking in
// place of the measured tail ratio).
//
// Bridge coupling is handled the way the exact path handles it — a damped
// fixed point on the boundary scalars — but with the M/M/1/K blocking
// probability in place of the solved model's full probability, so no LP is
// ever assembled: the whole sizing is a few thousand floating-point
// operations. Accuracy is anchored by the single-bus property test
// (TestSingleBusCTMDPMatchesMM1K): for one uncontended buffer the CTMDP
// stationary distribution IS the M/M/1/K distribution, so the approximation
// error comes only from multi-client contention and bridge feedback.
//
// The model is dense and index-addressed: buffers are integer indices into
// flat []float64 arrays built once per screen, routes are flattened into a
// CSR-style hop list, and blocking runs on the allocation-free incremental
// recurrence (queueing.BlockingRecurrence — oracle-gated against the MM1K
// closed form). The map-keyed view exists only at the package boundary
// (allocations in and out); every inner loop indexes slices.
//
// The result carries exactly one iteration, evaluated by simulation under
// the default longest-queue arbitration (no CTMDP policy exists to drive
// the simulator); Solution is nil and ModelLoss is the analytic weighted
// loss-rate estimate.
func runAnalytic(ctx context.Context, cfg core.Config) (*core.Result, error) {
	s, err := core.NewStepper(ctx, cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.Config()

	sol, err := analyticSolve(s.Arch(), cfg)
	if err != nil {
		return nil, err
	}

	alloc := arch.Allocation(sol.Alloc)
	if err := alloc.Validate(s.Arch(), cfg.Budget); err != nil {
		return nil, fmt.Errorf("solver: analytic sizing produced bad allocation: %w", err)
	}
	loss, byProc, err := s.Evaluate(ctx, alloc)
	if err != nil {
		return nil, err
	}
	s.Record(core.Iteration{
		Alloc:      alloc,
		SimLoss:    loss,
		LossByProc: byProc,
		ModelLoss:  sol.LossRate,
	})
	return s.Result()
}

// AnalyticSolution is one analytic sizing: the closed-form backend's
// chosen allocation and its weighted loss-rate estimate. It is recomputed
// on every run, never cached: fingerprinting the architecture would cost
// about as much as the sizing itself.
type AnalyticSolution struct {
	Alloc    map[string]int
	LossRate float64
}

// analyticModel is the dense closed-form view of the buffered architecture:
// buffer i is m.buffers[i] everywhere, routes are flattened into the
// (hopStart, hopBuf) CSR pair, and every per-buffer quantity is a flat
// slice indexed by i. The static structure (topology, bus rates, routing)
// is shared across perturbed copies — withSample only re-derives the
// rate-dependent slices — which is what lets the robust backend build N
// per-sample screens without re-routing or re-cloning the architecture.
type analyticModel struct {
	buffers []string       // sorted buffer IDs; position = dense index
	index   map[string]int // buffer ID -> dense index
	busOf   []int          // dense buffer -> dense bus, -1 for traffic-free buffers
	muBus   []float64      // dense bus -> service rate

	// Per-route (1:1 with a.Flows, in order): nominal rate, current
	// (possibly perturbed) rate, and the source processor's loss weight.
	baseRate  []float64
	routeRate []float64
	routeW    []float64
	// Route r's hops are hopBuf[hopStart[r]:hopStart[r+1]], each entry the
	// dense buffer the hop waits in (-1 when the ID is outside BufferIDs —
	// kept so attenuation still walks the hop, matching the map model).
	hopStart []int
	hopBuf   []int

	weight      []float64 // rate-weighted loss weight per buffer
	initArrival []float64 // raw no-loss arrival rates (fixed-point seed)
}

func newAnalyticModel(a *arch.Architecture, cfg core.Config) (*analyticModel, error) {
	clients, err := a.BusClients()
	if err != nil {
		return nil, err
	}
	routes, err := a.Routes()
	if err != nil {
		return nil, err
	}
	m := &analyticModel{buffers: a.BufferIDs()}
	sort.Strings(m.buffers)
	m.index = make(map[string]int, len(m.buffers))
	for i, id := range m.buffers {
		m.index[id] = i
	}
	m.busOf = make([]int, len(m.buffers))
	for i := range m.busOf {
		m.busOf[i] = -1
	}
	// Dense bus order: sorted bus IDs, so every later accumulation has one
	// canonical float summation order.
	busIDs := make([]string, 0, len(clients))
	for bus := range clients {
		busIDs = append(busIDs, bus)
	}
	sort.Strings(busIDs)
	m.muBus = make([]float64, len(busIDs))
	for v, bus := range busIDs {
		b, ok := a.BusByID(bus)
		if !ok {
			return nil, fmt.Errorf("solver: unknown bus %q in client map", bus)
		}
		m.muBus[v] = b.ServiceRate
		for _, id := range clients[bus] {
			if i, ok := m.index[id]; ok {
				m.busOf[i] = v
			}
		}
	}
	// Flatten the routes.
	m.baseRate = make([]float64, len(routes))
	m.routeW = make([]float64, len(routes))
	m.hopStart = make([]int, len(routes)+1)
	for r, rt := range routes {
		m.baseRate[r] = rt.Flow.Rate
		m.routeW[r] = 1
		if lw, ok := cfg.LossWeights[rt.Flow.From]; ok {
			m.routeW[r] = lw
		}
		m.hopStart[r+1] = m.hopStart[r] + len(rt.Hops)
	}
	m.hopBuf = make([]int, m.hopStart[len(routes)])
	for r, rt := range routes {
		for h, hop := range rt.Hops {
			i, ok := m.index[hop.Buffer]
			if !ok {
				i = -1
			}
			m.hopBuf[m.hopStart[r]+h] = i
		}
	}
	m.routeRate = m.baseRate
	m.deriveRates()
	return m, nil
}

// withSample returns a copy of the model under one traffic perturbation:
// the static structure (topology, routing, bus rates) is shared, only the
// rate-dependent slices are re-derived. The factor product matches
// uncertain.Perturb's multiply bit for bit, so a screen built on the shared
// structure prices exactly what a screen on a Perturb'ed clone would.
func (m *analyticModel) withSample(rate []float64, burst float64) *analyticModel {
	out := *m
	out.routeRate = make([]float64, len(m.baseRate))
	for r := range out.routeRate {
		out.routeRate[r] = m.baseRate[r] * (rate[r] * burst)
	}
	out.deriveRates()
	return &out
}

// deriveRates recomputes the rate-dependent per-buffer slices from the
// current routeRate: the raw no-loss arrival seeds and the rate-weighted
// loss weights, both accumulated in route order (the same float order the
// map model used, so values are bit-identical).
func (m *analyticModel) deriveRates() {
	n := len(m.buffers)
	m.initArrival = make([]float64, n)
	wNum := make([]float64, n)
	wDen := make([]float64, n)
	for r := range m.routeRate {
		rate, w := m.routeRate[r], m.routeW[r]
		for h := m.hopStart[r]; h < m.hopStart[r+1]; h++ {
			if i := m.hopBuf[h]; i >= 0 {
				m.initArrival[i] += rate
				wNum[i] += float64(rate * w)
				wDen[i] += rate
			}
		}
	}
	m.weight = make([]float64, n)
	for i := range m.weight {
		m.weight[i] = 1
		if wDen[i] > 0 && wNum[i] > 0 {
			m.weight[i] = wNum[i] / wDen[i]
		}
	}
}

// serviceShare fills mu with each buffer's effective service rate given the
// current arrival estimates: the larger of the bus's residual capacity
// (μ − everyone else's load — right when the bus is underloaded and the
// arbiter serves this queue at nearly full rate) and the proportional share
// μ·λ/Λ (the saturated floor). This is the standard two-regime
// approximation for a single server shared by loss queues. busLoad is
// caller scratch of len(m.muBus); loads accumulate in dense (sorted) buffer
// order so the sums are reproducible.
func (m *analyticModel) serviceShare(arrival, mu, busLoad []float64) {
	for v := range busLoad {
		busLoad[v] = 0
	}
	for i, v := range m.busOf {
		if v >= 0 {
			busLoad[v] += arrival[i]
		}
	}
	for i, v := range m.busOf {
		if v < 0 {
			mu[i] = 0
			continue
		}
		lam, load, cap := arrival[i], busLoad[v], m.muBus[v]
		if lam <= 0 {
			mu[i] = cap
			continue
		}
		residual := cap - (load - lam)
		prop := cap * lam / load
		mu[i] = math.Max(residual, prop)
	}
}

// blocking returns the M/M/1/K loss probability of one buffer: 0 for
// traffic-free buffers, 1 for a degenerate (no service, no room) queue —
// the same conventions the map model's NewMM1K error path encoded — and
// the incremental recurrence everywhere else.
func blocking(lambda, mu float64, k int) float64 {
	if lambda <= 0 {
		return 0
	}
	if mu <= 0 || k < 1 {
		return 1
	}
	return queueing.BlockingRecurrence(lambda, mu, k)
}

// converge runs the closed-form boundary fixed point: greedy allocation at
// the current arrival estimates, M/M/1/K blocking at that allocation, route
// re-walk with blocking attenuation, damped update — core.BoundaryIters
// passes, mirroring the exact path's bridge-boundary iteration with
// formulas in place of LP solves. It returns the converged arrival
// estimates as a fresh dense slice.
func (m *analyticModel) converge(cfg core.Config) []float64 {
	n := len(m.buffers)
	arrival := append([]float64(nil), m.initArrival...)
	mu := make([]float64, n)
	busLoad := make([]float64, len(m.muBus))
	block := make([]float64, n)
	next := make([]float64, n)
	const damp = 0.7
	for fp := 0; fp < core.BoundaryIters; fp++ {
		m.serviceShare(arrival, mu, busLoad)
		alloc, _ := m.greedy(arrival, mu, cfg.Budget, nil)
		for i := 0; i < n; i++ {
			block[i] = blocking(arrival[i], mu[i], alloc[i])
		}
		// Re-derive arrivals along every route, attenuating the carried rate
		// by each upstream buffer's acceptance (an accepted M/M/1/K customer
		// is always eventually served, so acceptance is the whole story).
		for i := range next {
			next[i] = 0
		}
		for r := range m.routeRate {
			carried := m.routeRate[r]
			for h := m.hopStart[r]; h < m.hopStart[r+1]; h++ {
				if i := m.hopBuf[h]; i >= 0 {
					next[i] += carried
					carried *= 1 - block[i]
				}
			}
		}
		for i := range arrival {
			arrival[i] = float64(damp*next[i]) + float64((1-damp)*arrival[i])
		}
	}
	return arrival
}

// analyticSolve sizes the buffered architecture in closed form: converge
// the boundary, spend the budget by marginal greedy, and price the result.
func analyticSolve(a *arch.Architecture, cfg core.Config) (*AnalyticSolution, error) {
	m, err := newAnalyticModel(a, cfg)
	if err != nil {
		return nil, err
	}
	arrival := m.converge(cfg)
	mu := make([]float64, len(m.buffers))
	m.serviceShare(arrival, mu, make([]float64, len(m.muBus)))
	alloc, _ := m.greedy(arrival, mu, cfg.Budget, nil)
	var loss float64
	for i := range m.buffers {
		loss += float64(m.weight[i] * arrival[i] * blocking(arrival[i], mu[i], alloc[i]))
	}
	return &AnalyticSolution{Alloc: m.allocMap(alloc), LossRate: loss}, nil
}

// allocMap converts a dense allocation to the package-boundary map form.
func (m *analyticModel) allocMap(alloc []int) map[string]int {
	out := make(map[string]int, len(m.buffers))
	for i, id := range m.buffers {
		out[id] = alloc[i]
	}
	return out
}

// allocKeyDense renders a dense allocation in allocKeyMap's canonical
// "id=units;" format (m.buffers is sorted, so the two serialisations are
// byte-identical — candidate dedup keys and map keys interoperate).
func (m *analyticModel) allocKeyDense(alloc []int) string {
	var b strings.Builder
	for i, id := range m.buffers {
		b.WriteString(id)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(alloc[i]))
		b.WriteByte(';')
	}
	return b.String()
}

// greedy spends the budget unit by unit on the buffer with the largest
// weighted marginal loss reduction w·λ·(B(K) − B(K+1)), starting from the
// one-unit floor every buffer keeps. Ties break toward the smaller dense
// index (= lexicographically smaller buffer ID) so the allocation is
// deterministic.
//
// Each buffer carries incremental blocking state — B(k) and B(k+1) advance
// by one BlockingStep per unit granted, never re-derived from scratch — and
// when traj is non-nil the full pick sequence is appended to it. Because
// the gain sequence is independent of the budget, the allocation at any
// smaller budget b is exactly the floor plus the first b−n picks: the
// robust budget ladder reads its rungs as prefix snapshots of one full
// trajectory instead of re-running a greedy per rung
// (TestRobustTrajectoryPrefixEquivalence pins the equivalence).
func (m *analyticModel) greedy(arrival, mu []float64, budget int, traj []int) ([]int, []int) {
	n := len(m.buffers)
	alloc := make([]int, n)
	gain := make([]float64, n)
	rho := make([]float64, n)
	bk := make([]float64, n)  // B(alloc[i])
	bk1 := make([]float64, n) // B(alloc[i]+1)
	for i := 0; i < n; i++ {
		alloc[i] = 1
		if arrival[i] <= 0 || mu[i] <= 0 {
			continue // blocking is constant (0 or 1); the marginal is 0
		}
		rho[i] = arrival[i] / mu[i]
		bk[i] = queueing.BlockingRecurrence(arrival[i], mu[i], 1)
		bk1[i] = queueing.BlockingStep(rho[i], bk[i])
		gain[i] = m.weight[i] * arrival[i] * (bk[i] - bk1[i])
	}
	for left := budget - n; left > 0; left-- {
		best := 0
		for i := 1; i < n; i++ {
			if gain[i] > gain[best] {
				best = i
			}
		}
		alloc[best]++
		if traj != nil {
			traj = append(traj, best)
		}
		if rho[best] > 0 {
			bk[best] = bk1[best]
			bk1[best] = queueing.BlockingStep(rho[best], bk1[best])
			gain[best] = m.weight[best] * arrival[best] * (bk[best] - bk1[best])
		}
	}
	return alloc, traj
}
